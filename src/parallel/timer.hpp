// Wall-clock timers and a named phase accumulator used by the benchmark
// harnesses to produce the per-phase breakdowns of Figures 5-7.
#pragma once

#include <chrono>
#include <map>
#include <string>

namespace pcc::parallel {

// Simple wall-clock stopwatch.
class timer {
 public:
  timer() { start(); }
  void start() { start_ = clock::now(); }
  // Seconds elapsed since the last start().
  double elapsed() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  // Returns elapsed seconds and restarts the stopwatch.
  double lap() {
    const double e = elapsed();
    start();
    return e;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// Accumulates time into named phases. The decomposition implementations
// report into one of these so benches can print the same breakdown bars the
// paper plots (init / bfsPre / bfsPhase1 / bfsPhase2 / bfsMain / bfsSparse /
// bfsDense / filterEdges / contractGraph), plus the engine's `lift`
// (RELABELUP, the way back down the level stack).
class phase_timer {
 public:
  void add(const std::string& phase, double seconds) { phases_[phase] += seconds; }

  double get(const std::string& phase) const {
    auto it = phases_.find(phase);
    return it == phases_.end() ? 0.0 : it->second;
  }

  const std::map<std::string, double>& phases() const { return phases_; }

  double total() const {
    double t = 0;
    for (const auto& [name, s] : phases_) t += s;
    return t;
  }

  void clear() { phases_.clear(); }

  // Merge another accumulator into this one (used when CC sums the phase
  // times of all its recursive decomposition calls).
  void merge(const phase_timer& other) {
    for (const auto& [name, s] : other.phases_) phases_[name] += s;
  }

 private:
  std::map<std::string, double> phases_;
};

// RAII helper: accumulates the scope's duration into `pt[phase]`.
// A null phase_timer disables measurement at zero cost in call sites.
class scoped_phase {
 public:
  scoped_phase(phase_timer* pt, std::string phase)
      : pt_(pt), phase_(std::move(phase)) {}
  ~scoped_phase() {
    if (pt_ != nullptr) pt_->add(phase_, t_.elapsed());
  }
  scoped_phase(const scoped_phase&) = delete;
  scoped_phase& operator=(const scoped_phase&) = delete;

 private:
  phase_timer* pt_;
  std::string phase_;
  timer t_;
};

}  // namespace pcc::parallel
