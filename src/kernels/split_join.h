#pragma once
// Split, join, and replicate kernels (paper §IV-A, §IV-C, Fig. 10).
//
// Split and join are regular kernels implementing finite state machines
// for distributing data to — and collecting results from — parallelized
// kernel instances:
//  * RoundRobin: one item per branch in turn (data-parallel kernels).
//    The FSM resets at end-of-frame so frames start aligned.
//  * ColumnRanges (split): per scan line, item x goes to every branch
//    whose column range contains x; ranges overlap by the window halo so
//    shared data is replicated to both buffer halves (Fig. 10).
//  * RunLength (join): per scan line, take runs[i] consecutive items from
//    branch i — the collection order for column-split buffers.
// Control tokens are broadcast by split (every branch must see frame
// boundaries) and collapsed to one copy by join.
//
// Replicate copies every item to all branches; it feeds replicated inputs
// (coefficients, bin boundaries) of parallelized kernels.

#include <string>
#include <utility>
#include <vector>

#include "core/kernel.h"

namespace bpp {

class SplitKernel final : public Kernel {
 public:
  enum class Mode { RoundRobin, ColumnRanges };

  /// Round-robin split into `n` branches of `item`-granularity data.
  SplitKernel(std::string name, int n, Size2 item, Step2 step);

  /// Column-range split: per line of `items_per_line` items, item x is
  /// copied to every branch i with ranges[i].first <= x < ranges[i].second.
  SplitKernel(std::string name, std::vector<std::pair<int, int>> ranges,
              int items_per_line, Size2 item, Step2 step);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<SplitKernel>(*this);
  }
  void init() override;

  [[nodiscard]] ParKind parallel_kind() const override { return ParKind::Serial; }
  [[nodiscard]] std::string dot_shape() const override { return "diamond"; }

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] int branches() const { return n_; }
  [[nodiscard]] const std::vector<std::pair<int, int>>& ranges() const {
    return ranges_;
  }

 private:
  void route();
  void on_eol();
  void on_eof();
  void on_eos();
  void broadcast(TokenClass cls);

  Mode mode_;
  int n_;
  Size2 item_;
  Step2 step_;
  std::vector<std::pair<int, int>> ranges_;
  int items_per_line_ = 0;
  int in_ = -1;            ///< port indices, resolved in configure()
  std::vector<int> outs_;  ///< output port of each branch

  int rr_ = 0;  ///< next branch (RoundRobin)
  int x_ = 0;   ///< position in line (ColumnRanges)
};

class JoinKernel final : public Kernel {
 public:
  enum class Mode { RoundRobin, RunLength };

  /// Round-robin join from `n` branches.
  JoinKernel(std::string name, int n, Size2 item, Step2 step);

  /// Run-length join: per line, take runs[i] consecutive items from branch
  /// i in order (collects column-split buffer output back in scan order).
  JoinKernel(std::string name, std::vector<int> runs, Size2 item, Step2 step);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<JoinKernel>(*this);
  }
  void init() override;

  [[nodiscard]] ParKind parallel_kind() const override { return ParKind::Serial; }
  [[nodiscard]] std::string dot_shape() const override { return "diamond"; }

  [[nodiscard]] bool decide_custom(const std::vector<int>& connected,
                                   const HeadFn& head,
                                   FireDecision& out) const override;

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] int branches() const { return n_; }
  [[nodiscard]] const std::vector<int>& runs() const { return runs_; }

 private:
  void take();
  void on_eol();
  void on_eof();
  void on_eos();
  void advance();
  void reset_line();

  Mode mode_;
  int n_;
  Size2 item_;
  Step2 step_;
  std::vector<int> runs_;
  int out_ = -1;  ///< resolved in configure()

  int cur_ = 0;    ///< branch currently being drained
  int taken_ = 0;  ///< items taken from cur_ in this run (RunLength)
};

class ReplicateKernel final : public Kernel {
 public:
  ReplicateKernel(std::string name, int n, Size2 item, Step2 step);

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<ReplicateKernel>(*this);
  }

  [[nodiscard]] ParKind parallel_kind() const override { return ParKind::Serial; }
  [[nodiscard]] std::string dot_shape() const override { return "diamond"; }

  [[nodiscard]] int branches() const { return n_; }

 private:
  void copy_all();

  int n_;
  Size2 item_;
  Step2 step_;
  int in_ = -1;            ///< port indices, resolved in configure()
  std::vector<int> outs_;  ///< output port of each branch
};

}  // namespace bpp
