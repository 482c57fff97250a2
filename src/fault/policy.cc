#include "src/fault/policy.h"

#include "src/common/rng.h"
#include "src/common/status.h"

namespace mcrdl::fault {

SimTime RetryPolicy::backoff(int attempt, int rank) const {
  const SimTime window = backoff(attempt);
  if (jitter_seed == 0) return window;
  // One child stream per (rank, attempt): the draw depends on nothing but
  // the seed and those two coordinates, so concurrent retries on other
  // ranks — or a different interleaving on replay — cannot move it. Salt
  // mixes the coordinates injectively for the attempt counts in play.
  Rng stream = Rng(jitter_seed).split(
      static_cast<std::uint64_t>(rank) * 0x9e3779b97f4a7c15ull +
      static_cast<std::uint64_t>(attempt));
  // Full jitter over (0, window]: never zero, so a retry always yields the
  // baton and the trace keeps a visible backoff edge.
  return window * (1.0 - stream.next_double());
}

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(BreakerConfig config) : config_(config) {
  MCRDL_REQUIRE(config_.threshold >= 1, "circuit breaker threshold must be >= 1");
  MCRDL_REQUIRE(config_.cooldown >= 1, "circuit breaker cooldown must be >= 1");
}

void CircuitBreaker::transition(const std::string& backend, int rank, Entry& entry,
                                BreakerState to) {
  entry.state = to;
  if (hook_) hook_(backend, rank, to);
}

const CircuitBreaker::Entry* CircuitBreaker::find(const std::string& backend, int rank,
                                                   const BreakerScope& scope) const {
  auto it = entries_.find(std::tie(backend, rank, scope));
  return it == entries_.end() ? nullptr : &it->second;
}

CircuitBreaker::Entry* CircuitBreaker::find(const std::string& backend, int rank,
                                            const BreakerScope& scope) {
  auto it = entries_.find(std::tie(backend, rank, scope));
  return it == entries_.end() ? nullptr : &it->second;
}

bool CircuitBreaker::record_failure(const std::string& backend, int rank,
                                    const BreakerScope& scope) {
  Entry& entry = entries_[Key{backend, rank, scope}];
  ++entry.failures;
  switch (entry.state) {
    case BreakerState::Closed:
      if (entry.failures >= config_.threshold) {
        entry.skipped = 0;
        transition(backend, rank, entry, BreakerState::Open);
        return true;
      }
      return false;
    case BreakerState::HalfOpen:
      // A failed probe re-opens immediately: the backend proved it is still
      // sick, so it goes back to aging toward the next probe window.
      entry.skipped = 0;
      entry.successes = 0;
      transition(backend, rank, entry, BreakerState::Open);
      return true;
    case BreakerState::Open:
      return false;
  }
  return false;
}

void CircuitBreaker::record_success(const std::string& backend, int rank,
                                    const BreakerScope& scope) {
  Entry* found = find(backend, rank, scope);
  if (found == nullptr) return;
  Entry& entry = *found;
  switch (entry.state) {
    case BreakerState::Closed:
      entry.failures = 0;
      break;
    case BreakerState::HalfOpen:
      if (++entry.successes >= config_.cooldown) {
        entry.failures = 0;
        entry.skipped = 0;
        entry.successes = 0;
        transition(backend, rank, entry, BreakerState::Closed);
      }
      break;
    case BreakerState::Open:
      // Successes cannot arrive for an open backend through routing; an
      // out-of-band success does not close the breaker (probe first).
      break;
  }
}

void CircuitBreaker::note_skipped(const std::string& backend, int rank,
                                  const BreakerScope& scope) {
  Entry* found = find(backend, rank, scope);
  if (found == nullptr || found->state != BreakerState::Open) return;
  if (config_.probe_after_ops <= 0) return;
  Entry& entry = *found;
  if (++entry.skipped >= config_.probe_after_ops) {
    entry.skipped = 0;
    entry.successes = 0;
    transition(backend, rank, entry, BreakerState::HalfOpen);
  }
}

bool CircuitBreaker::allow_probe(const std::string& backend, int rank,
                                 const BreakerScope& scope) {
  Entry* entry = find(backend, rank, scope);
  if (entry == nullptr || entry->state != BreakerState::Open) return false;
  entry->skipped = 0;
  entry->successes = 0;
  transition(backend, rank, *entry, BreakerState::HalfOpen);
  return true;
}

bool CircuitBreaker::healthy(const std::string& backend, int rank,
                             const BreakerScope& scope) const {
  return state(backend, rank, scope) != BreakerState::Open;
}

BreakerState CircuitBreaker::state(const std::string& backend, int rank,
                                   const BreakerScope& scope) const {
  const Entry* entry = find(backend, rank, scope);
  return entry == nullptr ? BreakerState::Closed : entry->state;
}

int CircuitBreaker::consecutive_failures(const std::string& backend, int rank,
                                         const BreakerScope& scope) const {
  const Entry* entry = find(backend, rank, scope);
  return entry == nullptr ? 0 : entry->failures;
}

}  // namespace mcrdl::fault
