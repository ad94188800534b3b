#ifndef AQE_ENGINE_QUERY_ENGINE_TEST_PEER_H_
#define AQE_ENGINE_QUERY_ENGINE_TEST_PEER_H_

#include "engine/query_engine.h"

namespace aqe {

/// Engine internals that tests drive and the API does not offer.
struct QueryEngineTestPeer {
  /// The regression sentinel every completed cached query folds into.
  static RegressionTracker& sentinel(QueryEngine& engine);
};

}  // namespace aqe

#endif  // AQE_ENGINE_QUERY_ENGINE_TEST_PEER_H_
