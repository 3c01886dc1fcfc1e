// Deterministic scheduler: turns mailbox contents into a totally ordered
// stream of batch plans.
//
// The key design decision for determinism: batch *formation* never looks
// at worker availability. form() is a pure function of (mailbox contents,
// modeled clock, policy, round-robin cursor), so the sequence of batches —
// their composition, their order, and the lease epoch each one pins — is
// identical at any worker count. Workers (server.h) only decide *when* a
// formed batch executes in modeled time, i.e. latency and throughput; they
// can never change a response bit. This extends the PR 4 exec determinism
// contract (N threads == 1 thread, bitwise) to serving: N workers == 1
// worker, bitwise, for everything but the clock columns.
//
// Policy per formation round, scanning tenants round-robin from a
// persistent cursor:
//  - dispatch when a full batch is waiting (size >= max_batch), or
//  - when the oldest deadline forces it: serving must start within
//    batch_service_ticks of the deadline, or the requests would provably
//    miss it by waiting longer.
// Rounds repeat until no mailbox is due, so a burst forms several batches
// at one tick (fairly interleaved across tenants) instead of one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/lease.h"
#include "serve/mailbox.h"
#include "serve/request.h"

namespace pt::serve {

/// One formed batch: requests in dispatch order, pinned to the lease-table
/// version current at formation time. Execution (server.h) is free to run
/// it whenever a worker frees up — the outputs are already determined.
struct BatchPlan {
  std::int64_t batch_id = -1;  ///< global formation sequence number
  std::string model;
  Tick formed = 0;
  std::vector<Request> requests;  ///< deadline-ordered, identical shapes
  std::shared_ptr<ModelVersion> version;  ///< pinned lease
};

class Scheduler {
 public:
  /// Forms every batch due at tick `now` from `mailboxes` (tenant
  /// registration order), pinning versions from `leases`. Tenants with no
  /// published version are skipped (their requests wait for the first
  /// publish). The round-robin cursor persists across calls and advances
  /// by one per call, so sustained multi-tenant load shares dispatch
  /// positions fairly.
  std::vector<BatchPlan> form(Tick now,
                              const std::vector<Mailbox*>& mailboxes,
                              const LeaseTable& leases);

  /// Whether `m` is due for dispatch at `now` under this policy.
  bool due(const Mailbox& m, Tick now) const;

  std::int64_t batches_formed() const { return next_batch_id_; }

 private:
  std::size_t cursor_ = 0;
  std::int64_t next_batch_id_ = 0;
};

}  // namespace pt::serve
