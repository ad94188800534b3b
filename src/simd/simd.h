#ifndef AQE_SIMD_SIMD_H_
#define AQE_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace aqe {

/// Instruction-set tiers of the hand-written kernels (see simd/DESIGN.md).
/// Every kernel exists at every level; kScalar is the semantics-defining
/// differential reference the higher tiers are tested against.
enum class SimdLevel { kScalar = 0, kSSE2 = 1, kAVX2 = 2 };

const char* SimdLevelName(SimdLevel level);

/// The level selected once at startup: the best the CPU supports, clamped by
/// the AQE_SIMD environment override ("scalar", "sse2", "avx2"). The
/// override can only lower the level — requesting avx2 on a non-avx2 CPU
/// yields the best available tier.
SimdLevel ActiveSimdLevel();

/// What the hardware supports (ignores AQE_SIMD); non-x86 builds report
/// kScalar.
SimdLevel DetectedSimdLevel();

/// Trailing readable bytes every bitmap passed to the probe kernels must
/// have beyond its last code: the AVX2 tier gathers 4 bytes at
/// bitmap + code and may read up to 3 bytes past bitmap[max_code].
/// QueryProgram::AddBitmap pads its bitmaps accordingly.
constexpr size_t kSimdBitmapPadding = 4;

// --- bitmap probe kernels ---------------------------------------------------
// bitmap is byte-per-code (bitmap[code] != 0 means match); codes must be
// valid indices (the dictionary-encoding invariant).

/// Writes the lane indices whose code matches into `sel` (ascending) and
/// returns how many matched. The workhorse of dictionary-aware selection
/// pushdown: raw code column -> selection vector, no i64 materialization
/// (the vectorized engine widens 8- and 16-bit codes into an i32 vector
/// first).
int BitmapProbeSelI32(const int32_t* codes, int count, const uint8_t* bitmap,
                      int32_t* sel);
int BitmapProbeSelI64(const int64_t* codes, int count, const uint8_t* bitmap,
                      int32_t* sel);

/// Per-lane 0/1 result into int64 lanes (the vectorized engine's
/// kBitmapTest when the probe is not in selection-pushdown position).
void BitmapTestI64(const int64_t* codes, int count, const uint8_t* bitmap,
                   int64_t* out);

// --- substring search -------------------------------------------------------

/// First occurrence of needle in hay, or SIZE_MAX. Backs
/// Dictionary::MatchContains and the literal segments of LIKE '%x%y%'
/// bitmap construction. needle_len must be >= 1.
size_t FindSubstr(const char* hay, size_t hay_len, const char* needle,
                  size_t needle_len);

// --- forced-level variants --------------------------------------------------
// Same kernels with an explicit level, for the differential tests and the
// AQE_SIMD bench toggle. Levels above DetectedSimdLevel() fall back to the
// best the CPU supports.

int BitmapProbeSelI32At(SimdLevel level, const int32_t* codes, int count,
                        const uint8_t* bitmap, int32_t* sel);
int BitmapProbeSelI64At(SimdLevel level, const int64_t* codes, int count,
                        const uint8_t* bitmap, int32_t* sel);
void BitmapTestI64At(SimdLevel level, const int64_t* codes, int count,
                     const uint8_t* bitmap, int64_t* out);
size_t FindSubstrAt(SimdLevel level, const char* hay, size_t hay_len,
                    const char* needle, size_t needle_len);

}  // namespace aqe

#endif  // AQE_SIMD_SIMD_H_
