#include "dist/membership.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace pt::dist {

namespace {

// Smoothing of the per-replica step-time EWMA (1 would keep only the
// latest sample).
constexpr double kEwmaAlpha = 0.2;

}  // namespace

std::string to_string(ReplicaState state) {
  switch (state) {
    case ReplicaState::kHealthy: return "healthy";
    case ReplicaState::kSuspect: return "suspect";
    case ReplicaState::kDead: return "dead";
    case ReplicaState::kRejoining: return "rejoining";
  }
  return "?";
}

void MembershipConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("MembershipConfig: " + what);
  };
  if (suspect_threshold < 1) {
    fail("suspect_threshold must be >= 1 (got " +
         std::to_string(suspect_threshold) + ")");
  }
  if (!(min_live_fraction > 0.0 && min_live_fraction <= 1.0)) {
    fail("min_live_fraction must lie in (0, 1] (got " +
         std::to_string(min_live_fraction) + ")");
  }
}

std::string MembershipTransition::describe() const {
  std::ostringstream os;
  os << "replica " << replica << ": " << to_string(from) << " -> "
     << to_string(to) << " at step " << step;
  return os.str();
}

MembershipTable::MembershipTable(int size, MembershipConfig cfg) : cfg_(cfg) {
  cfg_.validate();
  if (size < 1) {
    throw std::invalid_argument("MembershipTable: size must be >= 1 (got " +
                                std::to_string(size) + ")");
  }
  members_.resize(static_cast<std::size_t>(size));
  departure_at_.assign(static_cast<std::size_t>(size), -1);
  rejoin_at_.assign(static_cast<std::size_t>(size), -1);
}

const MemberStatus& MembershipTable::member(int replica) const {
  return members_.at(static_cast<std::size_t>(replica));
}

void MembershipTable::schedule_departure(int replica, std::int64_t step) {
  if (replica < 0 || replica >= size()) {
    throw std::invalid_argument("schedule_departure: bad replica index " +
                                std::to_string(replica));
  }
  departure_at_.at(static_cast<std::size_t>(replica)) = step;
}

void MembershipTable::schedule_rejoin(int replica, std::int64_t step) {
  if (replica < 0 || replica >= size()) {
    throw std::invalid_argument("schedule_rejoin: bad replica index " +
                                std::to_string(replica));
  }
  rejoin_at_.at(static_cast<std::size_t>(replica)) = step;
}

int MembershipTable::quorum_threshold() const {
  return static_cast<int>(
      std::ceil(cfg_.min_live_fraction * static_cast<double>(size())));
}

void MembershipTable::transition(int replica, ReplicaState to,
                                 std::int64_t step) {
  MemberStatus& m = members_[static_cast<std::size_t>(replica)];
  transitions_.push_back({replica, m.state, to, step});
  m.state = to;
}

void MembershipTable::poll(std::int64_t step, robust::FaultInjector* injector) {
  participants_.clear();
  rejoining_.clear();
  for (int r = 0; r < size(); ++r) {
    MemberStatus& m = members_[static_cast<std::size_t>(r)];

    // Promote members whose fenced resync completed at the end of the
    // previous step: their first synced step is this one.
    if (m.state == ReplicaState::kRejoining) {
      transition(r, ReplicaState::kHealthy, step);
      m.failed = false;
      m.missed_acks = 0;
      m.failed_since = -1;
      m.rejoined_at = step;
      m.ewma_step_seconds = 0;  // stale estimate; resample from scratch
    }

    if (m.state == ReplicaState::kDead) {
      const bool scheduled =
          rejoin_at_[static_cast<std::size_t>(r)] == step;
      const bool injected =
          injector != nullptr && injector->rejoin_replica(r, step);
      if (cfg_.allow_rejoin && (scheduled || injected)) {
        transition(r, ReplicaState::kRejoining, step);
        // The revived worker is a fresh process: consume the departure and
        // rejoin schedules so a stale `step >= departure_at` match cannot
        // kill it again on its first healthy poll.
        departure_at_[static_cast<std::size_t>(r)] = -1;
        rejoin_at_[static_cast<std::size_t>(r)] = -1;
        rejoining_.push_back(r);
      }
      continue;
    }

    // Heartbeat: the permanent-failure latch, once set, is never re-queried
    // — a dead process answers no further polls.
    if (!m.failed) {
      bool dies = departure_at_[static_cast<std::size_t>(r)] >= 0 &&
                  step >= departure_at_[static_cast<std::size_t>(r)];
      if (!dies && injector != nullptr) {
        dies = injector->kill_replica(r, step) ||
               injector->flaky_replica(r, step);
      }
      if (dies) {
        m.failed = true;
        m.failed_since = step;
      }
    }

    if (!m.failed) {
      m.missed_acks = 0;
      participants_.push_back(r);
      ++m.steps_participated;
      continue;
    }

    ++m.missed_acks;
    if (m.state == ReplicaState::kHealthy) {
      transition(r, ReplicaState::kSuspect, step);
    }
    if (m.state == ReplicaState::kSuspect &&
        m.missed_acks >= cfg_.suspect_threshold) {
      transition(r, ReplicaState::kDead, step);
    }
  }
}

void MembershipTable::record_step_time(int replica, double seconds) {
  MemberStatus& m = members_.at(static_cast<std::size_t>(replica));
  m.ewma_step_seconds =
      m.ewma_step_seconds == 0
          ? seconds
          : kEwmaAlpha * seconds + (1.0 - kEwmaAlpha) * m.ewma_step_seconds;
}

double MembershipTable::max_ewma(const std::vector<int>& replicas) const {
  double worst = 0;
  for (int r : replicas) {
    worst = std::max(worst, member(r).ewma_step_seconds);
  }
  return worst;
}

std::vector<MembershipTransition> MembershipTable::drain_transitions() {
  std::vector<MembershipTransition> out;
  out.swap(transitions_);
  return out;
}

}  // namespace pt::dist
