#include "serve/scheduler.h"

#include "telemetry/metrics.h"

namespace pt::serve {

bool Scheduler::due(const Mailbox& m, Tick now) const {
  if (m.empty()) return false;
  if (m.size() >= m.max_batch()) return true;
  return now >= m.oldest_deadline() - m.batch_service_ticks();
}

std::vector<BatchPlan> Scheduler::form(Tick now,
                                       const std::vector<Mailbox*>& mailboxes,
                                       const LeaseTable& leases) {
  std::vector<BatchPlan> out;
  if (mailboxes.empty()) return out;
  const std::size_t n = mailboxes.size();
  // Rounds: each round gives every tenant (starting at the cursor) one
  // chance to form one batch; repeat while any batch formed, so a burst
  // drains fairly interleaved instead of one tenant monopolizing the
  // dispatch sequence.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < n; ++i) {
      Mailbox& m = *mailboxes[(cursor_ + i) % n];
      if (!due(m, now)) continue;
      auto version = leases.acquire(m.model());
      if (!version) continue;  // requests wait for the first publish
      BatchPlan plan;
      plan.batch_id = next_batch_id_++;
      plan.model = m.model();
      plan.formed = now;
      plan.requests = m.pop_batch();
      plan.version = std::move(version);
      telemetry::count("serve/batches");
      telemetry::count("serve/batched_requests",
                       static_cast<double>(plan.requests.size()));
      out.push_back(std::move(plan));
      progress = true;
    }
  }
  cursor_ = (cursor_ + 1) % n;
  return out;
}

}  // namespace pt::serve
