#pragma once
// Window kernels: the library kernels that read one windowed input and
// write one output from one data method (median, morphology, Sobel,
// resampling, FIR, unary ops, Bayer). A kernel is its windowed
// parameterization (w x h)[sx, sy] with an offset, its output window and
// its method (paper §II-A/B), plus one function from input window to
// output tile. WindowKernel<D> owns the rest: it declares "in", "out" and
// the method, and each firing reads input 0, calls D::apply and writes
// output 0, with no virtual call between the firing and D::apply.
//
//   class Negate final : public WindowKernel<Negate> {
//    public:
//     explicit Negate(std::string name)
//         : WindowKernel(std::move(name),
//                        centered_window({1, 1}, "negate", Resources{4, 2})) {}
//     [[nodiscard]] Tile apply(const Tile& in) const {
//       return Tile({1, 1}, -in.at(0, 0));
//     }
//   };

#include <memory>
#include <string>

#include "core/kernel.h"

namespace bpp {

/// What a window kernel declares: the input window, its step and the
/// input->output offset, the output window (its step is the window) and
/// the one method with its resources.
struct WindowDecl {
  Size2 in;
  Step2 step;
  Offset2 offset;
  Size2 out;
  const char* method;
  Resources res;
};

/// A stride-1 window whose output pixel sits at the integer centre
/// (w/2, h/2) of the window.
[[nodiscard]] constexpr WindowDecl centered_window(Size2 in, const char* method,
                                                   Resources res) {
  const Offset2 centre{static_cast<double>(in.w / 2),
                       static_cast<double>(in.h / 2)};
  return {in, {1, 1}, centre, {1, 1}, method, res};
}

template <class D>
class WindowKernel : public Kernel {
 public:
  void configure() final {
    create_input("in", decl_.in, decl_.step, decl_.offset);
    create_output("out", decl_.out);
    auto& m = register_method(decl_.method, decl_.res, &WindowKernel::run);
    method_input(m, "in");
    method_output(m, "out");
  }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const final {
    return std::make_unique<D>(static_cast<const D&>(*this));
  }

 protected:
  WindowKernel(std::string name, const WindowDecl& decl)
      : Kernel(std::move(name)), decl_(decl) {}

 private:
  /// The kernel's only ports, created first, are index 0.
  void run() {
    write_output(0, static_cast<const D&>(*this).apply(read_input(0)));
  }

  WindowDecl decl_;
};

}  // namespace bpp
