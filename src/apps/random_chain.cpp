#include "apps/random_chain.h"

#include <string>

#include "apps/pipelines.h"
#include "kernels/kernels.h"
#include "ref/reference.h"

namespace bpp::apps {

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Stage::shrink() const {
  switch (kind) {
    case Conv3:
    case Median3:
    case Sobel:
      return 2;
    case Conv5:
      return 4;
    default:
      return 0;
  }
}

Kernel* Stage::append(Graph& g, int idx) const {
  const std::string n = "stage" + std::to_string(idx);
  switch (kind) {
    case Conv3: {
      auto& k = g.add<ConvolutionKernel>(n, 3, 3);
      g.connect(g.add<ConstSource>(n + "_c", blur_coeff3x3()), "out", k,
                "coeff");
      return &k;
    }
    case Conv5: {
      auto& k = g.add<ConvolutionKernel>(n, 5, 5);
      g.connect(g.add<ConstSource>(n + "_c", blur_coeff5x5()), "out", k,
                "coeff");
      return &k;
    }
    case Median3:
      return &g.add<MedianKernel>(n, 3, 3);
    case Sobel:
      return &g.add<SobelKernel>(n);
    case Scale:
      return &g.add_kernel(make_scale(n, 0.5, 8.0));
    case Threshold:
      return &g.add_kernel(make_threshold(n, 96.0));
    case Down2:
      return &g.add<DownsampleKernel>(n, 2);
  }
  return nullptr;
}

Tile Stage::reference(const Tile& in) const {
  switch (kind) {
    case Conv3:
      return ref::convolve(in, blur_coeff3x3());
    case Conv5:
      return ref::convolve(in, blur_coeff5x5());
    case Median3:
      return ref::median(in, 3, 3);
    case Sobel:
      return ref::sobel(in);
    case Scale: {
      Tile out(in.size());
      for (int y = 0; y < in.height(); ++y)
        for (int x = 0; x < in.width(); ++x)
          out.at(x, y) = 0.5 * in.at(x, y) + 8.0;
      return out;
    }
    case Threshold: {
      Tile out(in.size());
      for (int y = 0; y < in.height(); ++y)
        for (int x = 0; x < in.width(); ++x)
          out.at(x, y) = in.at(x, y) > 96.0 ? 1.0 : 0.0;
      return out;
    }
    case Down2:
      return ref::downsample(in, 2);
  }
  return in;
}

std::vector<Stage> random_stages(std::uint64_t& rng, int max_stages,
                                 Size2& frame_left) {
  std::vector<Stage> stages;
  const int n = 1 + static_cast<int>(splitmix(rng) % max_stages);
  for (int i = 0; i < n; ++i) {
    const auto kind = static_cast<Stage::Kind>(splitmix(rng) % 7);
    Stage s{kind};
    Size2 next = {frame_left.w - s.shrink(), frame_left.h - s.shrink()};
    if (kind == Stage::Down2) next = {frame_left.w / 2, frame_left.h / 2};
    if (next.w < 8 || next.h < 8) break;  // keep enough room downstream
    if (kind == Stage::Down2 && (frame_left.w % 2 || frame_left.h % 2))
      continue;  // exact tilings only
    stages.push_back(s);
    frame_left = next;
  }
  if (stages.empty()) stages.push_back(Stage{Stage::Scale});
  return stages;
}

}  // namespace bpp::apps
