// The traced run: an in-process, single-threaded replay of one workload's
// open-phase requests through the same public calls pawsd::handleRequest
// makes, each timed with steady_clock from this file. It yields the
// per-layer self times; the untimed daemon run yields the end-to-end
// numbers, so tracing never touches them.
#pragma once

#include <string>

#include "bench.hpp"

namespace bench {

/// Replays `w` (cache loaded and warmed like the daemon's) and returns the
/// traced per-layer metrics. `daemonServiceUs` is the untraced run's
/// mean service_us, for the replay/daemon ratio. False with *error when
/// a replayed answer differs from its reference.
bool replayTraced(const Workload& w, double daemonServiceUs,
                  Metrics& out, std::string* error);

}  // namespace bench
