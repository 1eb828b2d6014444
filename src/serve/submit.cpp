#include "serve/submit.hpp"

#include <chrono>
#include <utility>

#include "flow/session.hpp"

namespace sndr::serve {

JobOutcome execute_job(flow::FlowConfig config, SharedCache* cache,
                       common::CancelToken token) {
  const auto t0 = std::chrono::steady_clock::now();
  JobOutcome out;

  if (config.dse) {
    // A DSE job is a whole sweep: the explorer owns the per-point sessions
    // (warm-start chaining is inherently sequential), so it runs in this
    // worker's lane rather than fanning out across the pool. The shared
    // technology still comes from the cache.
    dse::ExploreOptions eo;
    eo.cancel = token;
    if (cache != nullptr) eo.tech = cache->acquire(config);
    common::Result<dse::SweepResult> sweep = dse::explore(config, eo);
    if (sweep.ok()) {
      out.dse = std::move(sweep).value();
      out.design_name = config.design_path;
      out.nets = out.dse->n_nets;
      out.metrics = out.dse->metrics;
    } else {
      out.status = sweep.status();
    }
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return out;
  }

  flow::Session session(std::move(config));
  session.cancel_token() = std::move(token);

  if (cache != nullptr) {
    // Null: run without a shared technology — Session::load() walks the
    // same loaders in the same order and reports the canonical error.
    if (auto tech = cache->acquire(session.config())) {
      session.set_technology(std::move(tech));
    }
  }

  flow::Flow flow(session);
  common::Result<flow::FlowResult> run = flow.run();
  if (run.ok()) {
    out.result = std::move(run).value();
    out.design_name = session.design().name;
    out.sinks = session.design().sinks.size();
    out.buffers = session.cts().buffers;
    out.nets = session.nets().size();
    out.wirelength = session.cts().wirelength;
  } else {
    out.status = run.status();
  }
  out.metrics = session.obs_scope().metrics().snapshot();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace sndr::serve
