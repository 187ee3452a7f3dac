// Environment-variable helpers (typed reads with defaults).
//
// Knob families read through these helpers:
//   SYMPACK_TILE_* / SYMPACK_TILED_MIN_FLOPS
//                                     dense-kernel tiling (blas/kernels)
//   SYMPACK_FAULT_*                   fault injection (pgas/fault.hpp):
//     ENABLED, SEED, DROP, DUP, DELAY, DELAY_S, REORDER, TRANSFER, DEVICE,
//     KILL ("<rank>@<event>" or "random@<seed>" rank-death schedule)
//   SYMPACK_FAULT_SEED_BASE           chaos-CI base seed, read only by
//                                     tests/test_faults.cpp and
//                                     tests/test_resilience.cpp (mixed into
//                                     per-case seeds, never by the runtime)
#pragma once

#include <cstdint>

namespace sympack::support {

// Each read returns `fallback` when the variable is unset. A value that
// does not parse in full as the type (trailing garbage such as "4k", an
// empty string, an out-of-range number, a boolean other than 1/0,
// true/false, yes/no, on/off in any case) throws std::invalid_argument
// naming the variable and its value, so a typo never silently turns a
// knob on or off.
std::int64_t env_int(const char* name, std::int64_t fallback);
double env_double(const char* name, double fallback);
bool env_bool(const char* name, bool fallback);

}  // namespace sympack::support
