#include "mergeable/aggregate/coordinator.h"

#include <cmath>

#include "mergeable/util/check.h"

namespace mergeable {

uint64_t BackoffPolicy::BackoffBefore(uint32_t attempt) const {
  // A non-positive (or NaN) multiplier is a configuration bug: the
  // schedule would go negative or oscillate, and the uint64_t cast below
  // would be undefined behavior.
  MERGEABLE_CHECK_MSG(multiplier > 0.0, "multiplier must be positive");
  if (attempt == 0 || initial_backoff_ms == 0) return 0;
  // Closed form instead of repeated multiplication: pow saturates at
  // +inf instead of wrapping, and min() clamps to the cap before the
  // integer cast, so initial_backoff_ms * multiplier^k can never
  // overflow uint64_t no matter how large attempt or multiplier get.
  const double backoff = static_cast<double>(initial_backoff_ms) *
                         std::pow(multiplier, static_cast<double>(attempt - 1));
  const double cap = static_cast<double>(max_backoff_ms);
  // !(backoff < cap) also catches +inf; returning the cap directly keeps
  // the uint64_t cast in range even when max_backoff_ms itself does not
  // round-trip through double.
  if (!(backoff < cap)) return max_backoff_ms;
  return static_cast<uint64_t>(backoff);
}

}  // namespace mergeable
