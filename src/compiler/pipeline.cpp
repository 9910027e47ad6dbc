#include "compiler/pipeline.h"

#include <algorithm>

#include "core/validation.h"

namespace bpp {

CompiledApp compile(Graph g, CompileOptions options) {
  validate_or_throw(g);

  CompiledApp app;
  app.options = options;

  // §III-C: make multi-input kernels consistent before anything else.
  app.alignment_edits = align(g, options.align_policy);

  // §III-A then §III-B: analyze, buffer, re-analyze with buffers in place.
  DataflowResult df = analyze(g, Strictness::Strict);
  app.buffers = insert_buffers(g, df);
  df = analyze(g, Strictness::Strict);

  LoadMap loads(g, df);

  // §IV: meet the input rate.
  if (options.parallelize)
    app.parallelization = parallelize(
        g, df, loads, ParallelizeOptions{options.machine, options.reuse_opt});

  validate_or_throw(g);

  // §V: kernel-to-core mapping.
  app.one_to_one = map_one_to_one(g);
  app.mapping = options.multiplex ? map_greedy(g, loads, options.machine)
                                  : app.one_to_one;

  app.graph = std::move(g);
  app.analysis = std::move(df);
  app.loads = std::move(loads);
  return app;
}

double declared_rate(const CompiledApp& app, double slowdown) {
  double rate = 0.0;
  for (const KernelAnalysis& ka : app.analysis.kernel)
    rate = std::max(rate, ka.rate_hz);
  return slowdown > 0.0 ? rate / slowdown : rate;
}

}  // namespace bpp
