// The single experiment binary. Every experiment in bench/ self-registers
// into the ExperimentRegistry; this main selects and runs them:
//
//   plurality_exp --list                 show all registered experiments
//   plurality_exp --exp=<name>[,<name>]  run the named experiment(s)
//   plurality_exp --all                  run every experiment
//   plurality_exp --describe-all         emit the experiment catalog as
//                                        markdown (docs/EXPERIMENTS.md
//                                        is generated from this output;
//                                        see tools/gen_experiment_docs.py)
//
// Shared knobs (--seed= --reps= --jobs= --csv) plus each experiment's
// own sweep overrides pass straight through. Besides the human-readable
// tables on stdout, every run writes one structured JSON record —
// params, per-rep samples, Welford mean/stderr, wall clock — to
// BENCH_<name>.json (override the directory with --out-dir=, bundle all
// records into one file with --json=, or disable with --no-json).

#include <algorithm>
#include <cstddef>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/args.hpp"
#include "experiment/json_writer.hpp"
#include "experiment/registry.hpp"

namespace {

using plurality::Args;
using plurality::Experiment;
using plurality::ExperimentRegistry;
using plurality::JsonValue;

void print_list(const ExperimentRegistry& registry, std::ostream& os) {
  os << "registered experiments (" << registry.size() << "):\n";
  std::size_t width = 0;
  for (const Experiment* e : registry.list()) {
    width = std::max(width, e->name.size());
  }
  for (const Experiment* e : registry.list()) {
    os << "  " << e->name << std::string(width - e->name.size(), ' ')
       << "  reps=" << e->default_reps << "  " << e->description << "\n";
  }
}

void print_usage(const ExperimentRegistry& registry, std::ostream& os) {
  os << "usage: plurality_exp --exp=<name>[,<name>...] | --all | --list |"
        " --describe-all\n"
     << "       [--seed=N] [--reps=N] [--jobs=N] [--csv]\n"
     << "       [--engine=sequential|heap|superposition|sharded]"
        " [--shards=T]\n"
     << "       (an engine or latency a protocol cannot run is an error,"
        " never a fallback)\n"
     << "       [--latency=zero|const|exp|pareto|aging]"
        " [--latency-mean=M] [--latency-shape=S]\n"
     << "       [--graph=complete|ring|torus|er|regular|sbm]"
        " [--graph-p=P] [--graph-degree=D]\n"
     << "       [--graph-blocks=B] [--graph-pin=P] [--graph-pout=P]\n"
     << "       [--placement=uniform|community|adversarial_boundary|"
        "clustered_bfs]\n"
     << "       [--placement-fraction=F]\n"
     << "       [--trace=off|summary|FILE]  (FILE: chrome://tracing JSON)\n"
     << "       [--json=FILE | --out-dir=DIR | --no-json]\n"
     << "       [experiment-specific overrides, e.g. --n=4096]\n\n";
  print_list(registry, os);
}

// The experiment catalog as markdown: the registry is the single source
// of truth and the output is deterministic (name-sorted, no
// timestamps), so `--describe-all > docs/EXPERIMENTS.md` is
// reproducible and CI can diff the checked-in file against it.
void print_catalog(const ExperimentRegistry& registry, std::ostream& os) {
  os << "# Experiment catalog\n\n"
     << "<!-- Generated by `plurality_exp --describe-all` (see\n"
        "     tools/gen_experiment_docs.py). Do not edit by hand: CI\n"
        "     regenerates this file and fails when it drifts from the\n"
        "     experiment registry. -->\n\n"
     << "All " << registry.size()
     << " experiments live in the single registry-driven binary\n"
        "`plurality_exp` and share the common knobs `--seed=` `--reps=`\n"
        "`--jobs=` (process-wide thread cap for the "
        "work-stealing executor;\nresults are bit-identical for every "
        "value) `--csv` `--engine=` `--shards=` `--latency=` "
        "`--latency-mean=`\n`--latency-shape=` plus the scenario axes "
        "`--graph=` (with `--graph-p=`\n`--graph-degree=` "
        "`--graph-blocks=` `--graph-pin=` `--graph-pout=`) and\n"
        "`--placement=` (with `--placement-fraction=`) — see README and "
        "docs/SCENARIOS.md.\nAn engine or latency a protocol cannot run "
        "is rejected with an error naming\nthe flags, never replaced by "
        "a fallback. Every run emits one `BENCH_<name>.json` "
        "record with the resolved\nparameters and per-repetition "
        "samples.\n";
  for (const Experiment* e : registry.list()) {
    os << "\n## " << e->name << "\n\n"
       << e->description << "\n\n"
       << "*default repetitions: " << e->default_reps << "*\n";
    if (!e->describe.empty()) os << "\n" << e->describe << "\n";
  }
}

std::vector<std::string> split_csv_list(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string item = spec.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args(argc, argv);
  const auto& registry = ExperimentRegistry::instance();

  if (args.has_flag("list")) {
    print_list(registry, std::cout);
    return 0;
  }

  if (args.has_flag("describe-all")) {
    print_catalog(registry, std::cout);
    return 0;
  }

  std::vector<const Experiment*> selected;
  if (args.has_flag("all")) {
    selected = registry.list();
  } else {
    if (!args.has_flag("exp")) {
      // No selection at all is an error, not a help request (--list is
      // the explicit way to get a 0 exit): wrapper scripts that end up
      // passing nothing must not read "success, nothing run".
      print_usage(registry, std::cerr);
      return 1;
    }
    const std::string spec = args.get_string("exp", "");
    for (const std::string& name : split_csv_list(spec)) {
      const Experiment* experiment = registry.find(name);
      if (experiment == nullptr) {
        std::cerr << "error: unknown experiment '" << name << "'\n\n";
        print_list(registry, std::cerr);
        return 1;
      }
      selected.push_back(experiment);
    }
  }
  if (selected.empty()) {
    // A present-but-empty --exp= (e.g. an unset shell variable) must
    // not exit 0 with nothing run — scripts would read it as success.
    std::cerr << "error: no experiments selected (empty --exp= value)\n";
    return 1;
  }

  const bool write_json = !args.has_flag("no-json");
  const std::string combined_path = args.get_string("json", "");
  const std::string out_dir = args.get_string("out-dir", ".");

  JsonValue combined = JsonValue::array();
  int exit_code = 0;
  for (const Experiment* experiment : selected) {
    JsonValue record;
    try {
      record = registry.run_to_record(*experiment, args);
    } catch (const std::exception& e) {
      // One failing experiment must not discard the records already
      // accumulated by a long --all / --json run; emit a failure
      // record and keep going.
      std::cerr << "error: experiment '" << experiment->name
                << "' failed: " << e.what() << "\n";
      // Carry the full record schema (empty series) so trajectory
      // consumers keyed on "series"/"params" see a failed run, not a
      // malformed record.
      record = JsonValue::object();
      record["schema_version"] = 1;
      record["experiment"] = experiment->name;
      record["description"] = experiment->description;
      record["params"] = JsonValue::object();
      record["series"] = JsonValue::array();
      record["error"] = e.what();
      record["exit_code"] = 1;
      record["wall_clock_seconds"] = 0.0;
    }
    if (const JsonValue* rc = record.find("exit_code");
        rc != nullptr && rc->as_double() != 0.0) {
      std::cerr << "warning: experiment '" << experiment->name
                << "' did not complete cleanly\n";
      exit_code = 1;
    }
    if (!write_json) continue;
    if (!combined_path.empty()) {
      combined.push_back(std::move(record));
    } else {
      const std::string path =
          out_dir + "/BENCH_" + experiment->name + ".json";
      plurality::write_json_file(path, record);
      std::cerr << "wrote " << path << "\n";
    }
  }
  if (write_json && !combined_path.empty()) {
    plurality::write_json_file(combined_path, combined);
    std::cerr << "wrote " << combined_path << "\n";
  }
  return exit_code;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
