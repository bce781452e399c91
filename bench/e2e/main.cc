// meetxml_e2e — the end-to-end benchmark's program. run.py drives it:
//
//   meetxml_e2e --generate --workload W --seed N --out DIR
//       writes the seeded inputs of workload W into DIR.
//   meetxml_e2e --workload W --inputs DIR --scratch DIR --seconds S
//               [--warmup S] [--setups N] [--trace 0|1]
//               [--trace-file PATH]
//       sets up, runs the workload and prints one JSON object as its
//       last line of output. The workload never sees the seed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "meetxml_e2e: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool generate = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--generate") {
      generate = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      args[arg.substr(2)] = argv[++i];
    } else {
      return Usage(("unexpected argument " + arg).c_str());
    }
  }
  auto arg = [&](const char* name, const char* fallback) {
    auto it = args.find(name);
    return it == args.end() ? std::string(fallback) : it->second;
  };

  const std::string workload = arg("workload", "");
  bool known = false;
  for (const std::string& name : e2e::WorkloadNames()) {
    known = known || name == workload;
  }
  if (!known) return Usage("--workload must name one of the workloads");

  if (generate) {
    if (!args.count("seed") || !args.count("out")) {
      return Usage("--generate needs --seed and --out");
    }
    uint64_t seed = 0;
    try {
      seed = std::stoull(args["seed"]);
    } catch (const std::exception&) {
      return Usage("--seed takes a number");
    }
    e2e::Status status = e2e::GenerateInputs(workload, seed, args["out"]);
    if (!status.ok()) {
      std::fprintf(stderr, "meetxml_e2e: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  if (!args.count("inputs") || !args.count("scratch")) {
    return Usage("a run needs --inputs and --scratch");
  }
  e2e::RunConfig config;
  config.workload = workload;
  config.inputs = args["inputs"];
  config.scratch = args["scratch"];
  config.trace = arg("trace", "0") == "1";
  config.trace_file = arg("trace-file", "");
  try {
    if (args.count("seconds")) config.seconds = std::stod(args["seconds"]);
    if (args.count("warmup")) config.warmup_seconds = std::stod(args["warmup"]);
    if (args.count("setups")) config.setups = std::stoi(args["setups"]);
  } catch (const std::exception&) {
    return Usage("--seconds, --warmup and --setups take numbers");
  }
  if (config.seconds <= 0 || config.warmup_seconds < 0 || config.setups < 1) {
    return Usage("--seconds must be positive and --setups at least 1");
  }

  e2e::Result<e2e::RunOutput> run = workload == "store_churn"
                                        ? e2e::RunChurnWorkload(config)
                                        : e2e::RunQueryWorkload(config);
  if (!run.ok()) {
    std::fprintf(stderr, "meetxml_e2e: %s: %s\n", workload.c_str(),
                 run.status().ToString().c_str());
    return 1;
  }
  e2e::RunOutput& out = *run;
  bool correct = out.failed == 0 && out.attempted > 0;
  std::string checks = "[";
  for (size_t i = 0; i < out.checks.size(); ++i) {
    const e2e::Check& check = out.checks[i];
    correct = correct && check.ok;
    if (i > 0) checks += ", ";
    checks += e2e::JsonObject()
                  .Str("name", check.name)
                  .Bool("ok", check.ok)
                  .Str("detail", check.detail)
                  .Build();
  }
  checks += "]";
  out.info.Num("nproc", std::thread::hardware_concurrency())
      .Str("compiler", __VERSION__)
      .Str("build_type", MEETXML_E2E_BUILD_TYPE);

  e2e::JsonObject result;
  result.Str("workload", workload)
      .Bool("correct", correct)
      .Num("attempted", static_cast<double>(out.attempted))
      .Num("failed", static_cast<double>(out.failed))
      .Raw("end_to_end", out.end_to_end.ToJson());
  if (config.trace) result.Raw("per_layer", out.per_layer.ToJson());
  result.Raw("checks", checks).Raw("info", out.info.Build());
  std::printf("%s\n", result.Build().c_str());
  return 0;
}
