// Command-line plumbing shared by the harness's subcommands.
#pragma once

#include <cstdlib>
#include <map>
#include <string>

namespace perfbench {

/// `--key value` pairs; a `--key` followed by another `--` flag (or
/// nothing) is a boolean flag.
class Args {
 public:
  Args(int argc, char** argv, int first);

  bool has(const std::string& key) const { return values_.count(key) != 0; }
  bool flag(const std::string& key) const { return has(key); }
  std::string str(const std::string& key, const std::string& def = "") const;
  int integer(const std::string& key, int def) const;
  double real(const std::string& key, double def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Peak resident set (VmHWM) of this process, in MiB.
double vm_hwm_mib();

int run_paper_batch(const Args& args);
int run_load(const Args& args);
int run_served_probe(const Args& args);

}  // namespace perfbench
