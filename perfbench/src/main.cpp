// perfbench — the benchmark's native half. perfbench/run.py builds it and
// drives it; each subcommand prints one JSON object on stdout.
//
//   perfbench batch [--layers] [--setups N]       paper_batch protocol
//   perfbench load --port P --lines FILE ...      closed-loop TCP client
//   perfbench probe --lines FILE [--hot]          in-process layer probes
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "harness.h"
#include "service/framing.h"

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    const bool has_value =
        i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
    values_.insert_or_assign(key, std::string(has_value ? argv[++i] : "1"));
  }
}

std::string Args::str(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

int Args::integer(const std::string& key, int def) const {
  return has(key) ? std::atoi(str(key).c_str()) : def;
}

double Args::real(const std::string& key, double def) const {
  return has(key) ? std::atof(str(key).c_str()) : def;
}

double vm_hwm_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
  }
  return 0.0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench batch|load|probe [options]\n");
    return 2;
  }
  tecfan::service::ignore_sigpipe();
  const std::string cmd = argv[1];
  const perfbench::Args args(argc, argv, 2);
  try {
    if (cmd == "batch") return perfbench::run_paper_batch(args);
    if (cmd == "load") return perfbench::run_load(args);
    if (cmd == "probe") return perfbench::run_served_probe(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
