#include "core/panel_driver.hpp"

#include <algorithm>

namespace camult::core {

PanelDriver::PanelDriver(MatrixView a, const DriverOptions& opts)
    : a_(a), exec_(opts) {
  if (opts.b < 1) throw std::invalid_argument("b must be >= 1");
  if (opts.tr < 1) throw std::invalid_argument("tr must be >= 1");
  if (opts.window < 0) {
    throw std::invalid_argument("window must be >= 0 (0 = all panels)");
  }
  m_ = a.rows();
  n_ = a.cols();
  k_total_ = std::min(m_, n_);
  b_ = std::max<idx>(1, std::min(opts.b, k_total_));
  n_panels_ = (k_total_ + b_ - 1) / b_;
  n_blocks_ = (n_ + b_ - 1) / b_;  // column blocks
  m_blocks_ = (m_ + b_ - 1) / b_;  // row blocks (tracker granularity)
  slots_ = std::max<idx>(1, std::min(opts.tr, m_blocks_)) + 1;
  window_ = opts.window > 0 ? std::min(opts.window, n_panels_) : n_panels_;
  ring_.ring = window_ + 2;
  // Look-ahead priority bands (see lookahead.hpp): panel path on top, then
  // the tasks of column k+1 that unblock panel k+1, then ordinary trailing
  // updates — so the next panel races ahead as soon as its column is up to
  // date.
  prio_ = LookaheadPriorities{n_panels_, n_blocks_, opts.lookahead};

  rt::TaskGraph::Config cfg;
  cfg.num_threads = opts.num_threads;
  cfg.record_trace = opts.record_trace;
  cfg.pool = opts.pool;
  cfg.cancel = opts.cancel;
  cfg.fault = opts.fault;
  cfg.fault_salt = opts.fault_salt;
  graph_ = std::make_unique<rt::TaskGraph>(cfg);
  if (n_panels_ > 0) {
    graph_->track_iterations(n_panels_);
    // Runs on the submission thread (advance_retired), so it never races
    // the submit_iteration that allocates a later iteration's state.
    graph_->set_retire_hook([this](idx k) { retire(k); });
  }
}

void PanelDriver::add(const std::vector<rt::BlockAccess>& acc,
                      rt::TaskKind kind, idx k, int priority,
                      std::string label, std::function<void()> fn) {
  rt::TaskOptions topts;
  topts.kind = kind;
  topts.iteration = static_cast<int>(k);
  topts.priority = biased_priority(priority, exec_.priority_bias);
  topts.label = std::move(label);
  graph_->submit_accessing(acc, std::move(topts), std::move(fn));
}

void PanelDriver::pump(idx stop) {
  rt::TaskGraph& graph = *graph_;
  const idx lim = std::min(stop, n_panels_);
  while (next_k_ < lim) {
    if (graph.aborted()) return;
    if (next_k_ > window_) graph.wait_retired_iterations(next_k_ - window_);
    submit_iteration(next_k_);
    // The last iteration stays open for the tail.
    if (next_k_ < n_panels_ - 1) graph.seal_iterations(next_k_);
    ++next_k_;
  }
  if (next_k_ == n_panels_ && n_panels_ > 0 && !tail_done_) {
    if (!graph.aborted()) submit_tail();
    graph.seal_iterations(n_panels_ - 1);
    tail_done_ = true;
  }
}

void PanelDriver::run_to_end(DriverResult& r) {
  try {
    pump(n_panels_);
    graph_->wait();
  } catch (...) {
    if (exec_.sched_out != nullptr) *exec_.sched_out = graph_->stats();
    throw;
  }
  if (exec_.record_trace) {
    r.trace = graph_->trace();
    r.edges = graph_->edges();
  }
  r.sched = graph_->stats();
  r.mem = graph_->memory();
  if (exec_.sched_out != nullptr) *exec_.sched_out = r.sched;
}

}  // namespace camult::core
