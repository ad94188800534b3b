#ifndef AQE_OBS_STATS_SERVER_H_
#define AQE_OBS_STATS_SERVER_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>

namespace aqe {

/// Minimal observability HTTP endpoint: one thread, blocking accept (with
/// a 100 ms poll so Stop() is prompt), HTTP/1.0, connection-per-request.
/// No dependencies beyond POSIX sockets — this is a diagnosis port, not a
/// serving layer; the deliberate smallness keeps it auditable and keeps
/// the engine's first network socket out of every default configuration
/// (the engine only constructs it when QueryEngineOptions::stats_port is
/// set). Binds 127.0.0.1 only.
///
/// Routes (fixed): GET /metrics -> handlers.metrics_text (Prometheus text
/// exposition), GET /trace.json -> handlers.trace_json (Chrome trace),
/// GET /profiles -> handlers.profiles_json (the recent queries' EXPLAIN
/// ANALYZE JSON + anomalies), GET /profile -> handlers.profile_text
/// (completed queries' exact CPU time as collapsed stacks, flamegraph.pl
/// input). Anything
/// else is 404. Handlers run on the server thread and must be thread-safe
/// against the engine.
class StatsServer {
 public:
  struct Handlers {
    std::function<std::string()> metrics_text;
    std::function<std::string()> trace_json;
    std::function<std::string()> profiles_json;
    std::function<std::string()> profile_text;
  };

  /// Binds 127.0.0.1:`port` (0 = ephemeral; read the bound port back via
  /// port()) and starts the serve thread. On bind failure the server is
  /// inert: ok() is false and port() is -1.
  StatsServer(int port, Handlers handlers);
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// Stops accepting and joins the serve thread. Idempotent; the
  /// destructor calls it.
  void Stop();

  bool ok() const { return listen_fd_ >= 0; }
  int port() const { return port_; }

 private:
  void Serve();

  Handlers handlers_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace aqe

#endif  // AQE_OBS_STATS_SERVER_H_
