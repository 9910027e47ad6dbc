#pragma once
// Application output sink.
//
// Collects everything arriving on its input. Pixel streams (1x1 tiles with
// EOL/EOF tokens) are reassembled into 2-D frames; other tile streams
// (e.g. per-frame histograms) are collected as raw tiles. Used by tests to
// compare against golden references and by examples to write images.

#include <string>
#include <vector>

#include "core/kernel.h"

namespace bpp {

class OutputKernel final : public Kernel {
 public:
  /// @param item the tile shape expected per arrival (defaults to pixels)
  explicit OutputKernel(std::string name, Size2 item = {1, 1});

  void configure() override;
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<OutputKernel>(*this);
  }
  void init() override;

  [[nodiscard]] ParKind parallel_kind() const override { return ParKind::Serial; }

  /// Completed 2-D frames (pixel streams reassembled via EOL/EOF).
  [[nodiscard]] const std::vector<Tile>& frames() const { return frames_; }
  /// Every data tile received, in arrival order.
  [[nodiscard]] const std::vector<Tile>& tiles() const { return tiles_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] long tokens_seen(TokenClass cls) const;

 private:
  void collect();
  void on_eol();
  void on_eof();
  void on_eos();

  Size2 item_;
  int in_ = -1;  ///< resolved in configure()
  std::vector<Tile> tiles_;
  std::vector<Tile> frames_;
  std::vector<std::vector<double>> rows_;  // completed rows of current frame
  std::vector<std::vector<double>> band_;  // in-progress rows (item_.h high)
  long eol_count_ = 0, eof_count_ = 0, eos_count_ = 0;
  bool finished_ = false;
};

}  // namespace bpp
