// Trace visualization (DESIGN.md §11): runs one WAN scenario with the
// structured tracer armed and exports the event log twice -- as a Chrome
// trace-event JSON you can load at https://ui.perfetto.dev (every request
// renders as an async span from issue to completion with its hops, bounces
// and failovers nested inside; scheduler and fault events land on the
// engine track) and as JSONL for ad hoc analysis (jq, python). Timestamps
// are ROUND NUMBERS, not wall-clock: the trace is bit-identical across
// thread counts and scheduler modes by the §11 determinism contract.
//
//   ./example_trace_visualize [--scenario lookups-across-wan-partition-heal]
//                             [--n 48] [--seed 1] [--threads T] [--full-scan]
//                             [--out /tmp/rechord-trace]
//
// writes <out>.chrome.json and <out>.jsonl, then prints a per-event census
// so you can see what the timeline contains before opening the UI.

#include <cstdio>
#include <fstream>
#include <string>

#include "sim/scenario.hpp"
#include "util/cli.hpp"
#include "util/trace.hpp"

static int run_main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  const std::string name =
      cli.get("scenario", "lookups-across-wan-partition-heal");
  const std::string prefix = cli.get("out", "/tmp/rechord-trace");
  sim::ScenarioParams params;
  params.n = 48;
  params = sim::scenario_params_from_cli(cli, params);

  const sim::ScenarioInfo* info = sim::find_scenario(name);
  if (!info) {
    std::fprintf(stderr, "error: unknown scenario '%s'\n", name.c_str());
    return 2;
  }

  util::Tracer& tracer = util::Tracer::instance();
  tracer.set_enabled(true);
  tracer.clear();
  const auto out = sim::run_scenario(info->build(params), params);
  tracer.set_enabled(false);

  std::printf("scenario %s: n=%zu, %llu rounds, %s; %llu trace events "
              "recorded (%llu retained)\n\n",
              out.name.c_str(), out.n,
              static_cast<unsigned long long>(out.total_rounds),
              out.ok ? "all checkpoints passed" : "CHECKPOINT FAILED",
              static_cast<unsigned long long>(tracer.recorded()),
              static_cast<unsigned long long>(tracer.size()));

  // Per-kind census of the retained ring.
  std::uint64_t counts[static_cast<std::size_t>(util::TraceKind::kCount)] = {};
  tracer.for_each([&counts](const util::TraceEvent& e) {
    ++counts[static_cast<std::size_t>(e.kind)];
  });
  std::printf("%-18s %8s\n", "event", "count");
  for (std::size_t k = 0; k < static_cast<std::size_t>(util::TraceKind::kCount);
       ++k)
    if (counts[k] > 0)
      std::printf("%-18s %8llu\n",
                  util::trace_kind_name(static_cast<util::TraceKind>(k)),
                  static_cast<unsigned long long>(counts[k]));

  const std::string chrome_path = prefix + ".chrome.json";
  const std::string jsonl_path = prefix + ".jsonl";
  {
    std::ofstream f(chrome_path);
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", chrome_path.c_str());
      return 2;
    }
    tracer.write_chrome(f);
  }
  {
    std::ofstream f(jsonl_path);
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", jsonl_path.c_str());
      return 2;
    }
    tracer.write_jsonl(f);
  }
  tracer.clear();

  std::printf("\nwrote %s (Chrome trace-event JSON)\n", chrome_path.c_str());
  std::printf("wrote %s (one JSON object per line)\n", jsonl_path.c_str());
  std::printf("\nvisualize: open https://ui.perfetto.dev and drag in "
              "%s\n"
              "  - pid 1 'requests': one async span per request uid "
              "(issue -> hops -> complete)\n"
              "  - pid 0 'engine':   per-round scheduler instants, storm "
              "transitions, fault windows\n"
              "analyze:   jq 'select(.event==\"req-bounce\")' < %s\n",
              chrome_path.c_str(), jsonl_path.c_str());
  return out.ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return rechord::util::guarded_main(argc, argv, run_main);
}
