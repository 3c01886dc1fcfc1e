// Per-model mailbox: the bounded request queue one tenant's traffic lands
// in, plus the admission-control policy that guards it.
//
// Contract:
//  - Arrival ticks are monotone: push() throws if a request arrives with a
//    tick earlier than its predecessor's (the trace is the time base; a
//    regression means the driver is broken, not the traffic).
//  - Admission is the ONLY place a request can be rejected. Once admitted,
//    a request is guaranteed exactly one non-shed response — the zero-drop
//    invariant the hot-swap acceptance test measures.
//  - Rejection is structured: kQueueFull when the depth bound is hit,
//    kInfeasibleDeadline when the modeled completion estimate (a
//    single-worker serial-service model — deliberately independent of
//    actual worker availability, so shed decisions are part of the
//    determinism contract) exceeds the request's deadline.
//  - Dispatch order is oldest-deadline-first with arrival order as the tie
//    break; pop_batch() additionally groups identical input shapes so
//    batches are padding-free.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.h"

namespace pt::serve {

class Mailbox {
 public:
  /// `max_queue` bounds the depth (<= 0: unbounded) and `max_batch` caps
  /// pop_batch(); the runtime passes ServeConfig's two knobs.
  Mailbox(std::string model, std::int64_t max_queue, std::int64_t max_batch);

  const std::string& model() const { return model_; }
  std::int64_t max_batch() const { return max_batch_; }

  /// Modeled ticks to serve one full batch of `max_batch` samples on one
  /// worker — the unit of the serial-service wait estimate; 1 until set.
  /// The runtime sets it whenever a new model version is published (a
  /// pruned model serves faster, so admission loosens after a swap).
  Tick batch_service_ticks() const { return batch_service_ticks_; }
  void set_batch_service_ticks(Tick t);

  /// Admission control at modeled tick `now`. Returns kNone and enqueues,
  /// or the structured shed reason (request not enqueued). Throws
  /// std::invalid_argument on an arrival-tick regression or a model
  /// mismatch.
  ShedReason offer(const Request& r, Tick now);

  std::int64_t size() const { return static_cast<std::int64_t>(queue_.size()); }
  bool empty() const { return queue_.empty(); }

  /// Earliest deadline among queued requests; undefined when empty().
  Tick oldest_deadline() const;

  /// Modeled ticks until a request admitted *now* would complete, assuming
  /// one worker serves this mailbox alone in full batches: ceil((depth+1) /
  /// max_batch) * batch_service_ticks. Conservative under multiple workers
  /// and exact under one — and independent of execution state by design.
  Tick modeled_wait() const;

  /// Removes and returns the next batch: the oldest-deadline request plus
  /// up to max_batch-1 more in deadline order whose input shapes match it
  /// exactly (padding-free). Requests with other shapes keep their place.
  /// Empty result iff empty().
  std::vector<Request> pop_batch();

  // Cumulative statistics.
  std::int64_t admitted() const { return admitted_; }
  std::int64_t shed_queue_full() const { return shed_queue_full_; }
  std::int64_t shed_infeasible_count() const { return shed_infeasible_; }
  std::int64_t popped() const { return popped_; }

 private:
  std::string model_;
  std::int64_t max_queue_;
  std::int64_t max_batch_;
  Tick batch_service_ticks_ = 1;
  std::vector<Request> queue_;  ///< arrival order; dispatch scans deadlines
  Tick last_arrival_ = -1;
  std::int64_t admitted_ = 0;
  std::int64_t shed_queue_full_ = 0;
  std::int64_t shed_infeasible_ = 0;
  std::int64_t popped_ = 0;
};

}  // namespace pt::serve
