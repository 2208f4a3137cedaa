#include "sampling/size_estimator.h"

#include <algorithm>

#include "common/string_util.h"

namespace oscar {
namespace {

/// Summed clockwise span of `window` successor gaps starting at
/// `origin`, walking ring positions directly (one modular increment per
/// hop); 0 when the origin is dead or the ring is degenerate.
uint64_t GapSpan(NetworkView net, PeerId origin, uint32_t window) {
  const Ring& ring = net.ring();
  const size_t n = ring.size();
  uint32_t pos = net.ring_pos(origin);
  if (n < 2 || pos == Network::kNotOnRing) return 0;
  uint64_t span = 0;
  for (uint32_t i = 0; i < window; ++i) {
    const uint32_t next = static_cast<uint32_t>((pos + 1) % n);
    span += ClockwiseDistance(KeyId::FromRaw(ring.at(pos).key_raw),
                              KeyId::FromRaw(ring.at(next).key_raw));
    pos = next;
  }
  return span;
}

}  // namespace

double OracleSizeEstimator::Estimate(NetworkView net, PeerId origin,
                                     Rng* rng) const {
  (void)origin;
  (void)rng;
  return std::max<double>(1.0, static_cast<double>(net.alive_count()));
}

double GapSizeEstimator::Estimate(NetworkView net, PeerId origin,
                                  Rng* rng) const {
  (void)rng;
  const size_t alive = net.alive_count();
  if (alive < 2) return 1.0;
  const uint32_t window =
      static_cast<uint32_t>(std::min<size_t>(window_, alive - 1));
  const uint64_t span = GapSpan(net, origin, window);
  if (span == 0) return static_cast<double>(alive);
  const double span_fraction =
      static_cast<double>(span) / 18446744073709551616.0;
  return std::max(1.0, static_cast<double>(window) / span_fraction);
}

std::string GapSizeEstimator::name() const {
  return StrCat("gap(w=", window_, ")");
}

}  // namespace oscar
