#include "serve/mailbox.h"

#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace pt::serve {

Mailbox::Mailbox(std::string model, std::int64_t max_queue,
                 std::int64_t max_batch)
    : model_(std::move(model)), max_queue_(max_queue), max_batch_(max_batch) {
  if (model_.empty()) {
    throw std::invalid_argument("Mailbox: empty model name");
  }
  if (max_batch_ <= 0) {
    throw std::invalid_argument("Mailbox: max_batch must be >= 1");
  }
}

void Mailbox::set_batch_service_ticks(Tick t) {
  if (t <= 0) {
    throw std::invalid_argument("Mailbox: batch_service_ticks must be >= 1");
  }
  batch_service_ticks_ = t;
}

ShedReason Mailbox::offer(const Request& r, Tick now) {
  if (r.model != model_) {
    throw std::invalid_argument("Mailbox '" + model_ +
                                "': request for model '" + r.model + "'");
  }
  if (r.arrival < last_arrival_) {
    throw std::invalid_argument(
        "Mailbox '" + model_ + "': arrival tick regression (" +
        std::to_string(r.arrival) + " after " + std::to_string(last_arrival_) +
        ")");
  }
  last_arrival_ = r.arrival;
  if (max_queue_ > 0 && size() >= max_queue_) {
    ++shed_queue_full_;
    telemetry::count("serve/shed_queue_full");
    return ShedReason::kQueueFull;
  }
  if (now + modeled_wait() > r.deadline) {
    ++shed_infeasible_;
    telemetry::count("serve/shed_infeasible");
    return ShedReason::kInfeasibleDeadline;
  }
  queue_.push_back(r);
  ++admitted_;
  telemetry::count("serve/admitted");
  return ShedReason::kNone;
}

Tick Mailbox::oldest_deadline() const {
  Tick best = queue_.front().deadline;
  for (const Request& r : queue_) best = std::min(best, r.deadline);
  return best;
}

Tick Mailbox::modeled_wait() const {
  const std::int64_t depth = size() + 1;  // the candidate itself
  const std::int64_t batches = (depth + max_batch_ - 1) / max_batch_;
  return batches * batch_service_ticks_;
}

std::vector<Request> Mailbox::pop_batch() {
  std::vector<Request> out;
  if (queue_.empty()) return out;
  // Indices in dispatch order: (deadline, arrival position).
  std::vector<std::size_t> order(queue_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return queue_[a].deadline < queue_[b].deadline;
                   });
  // By value: the pivot request is moved out on the first loop iteration,
  // which would gut a reference into its tensor's shape.
  const Shape shape = queue_[order.front()].input.shape();
  std::vector<bool> taken(queue_.size(), false);
  for (std::size_t idx : order) {
    if (static_cast<std::int64_t>(out.size()) >= max_batch_) break;
    if (queue_[idx].input.shape() != shape) continue;
    taken[idx] = true;
    out.push_back(std::move(queue_[idx]));
  }
  std::vector<Request> rest;
  rest.reserve(queue_.size() - out.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (!taken[i]) rest.push_back(std::move(queue_[i]));
  }
  queue_ = std::move(rest);
  popped_ += static_cast<std::int64_t>(out.size());
  return out;
}

}  // namespace pt::serve
