#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "flags.hpp"

namespace mck {

namespace {

// The running driver's name and flags, for the usage text.
const char* g_driver = "bench";
std::vector<bench::Flag> g_flags;

void print_usage(std::FILE* out) {
  std::fprintf(out, "usage: %s [options]\n", g_driver);
  for (const bench::Flag& f : g_flags) {
    std::string left = f.name;
    if (f.value != nullptr) left = left + " " + f.value;
    std::fprintf(out, "  %-18s %s\n", left.c_str(), f.help);
  }
  std::fprintf(out, "  %-18s %s\n", "--help", "print this text and exit");
}

}  // namespace

void cli::usage(const char* msg) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  print_usage(stderr);
  std::exit(2);
}

namespace bench {

Args::Args(int argc, char** argv, std::vector<Flag> flags) {
  const char* slash = std::strrchr(argv[0], '/');
  g_driver = slash != nullptr ? slash + 1 : argv[0];
  g_flags = std::move(flags);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      print_usage(stdout);
      std::exit(0);
    }
    const Flag* flag = nullptr;
    for (const Flag& f : g_flags) {
      if (arg == f.name) flag = &f;
    }
    if (flag == nullptr) cli::usage(("unknown option: " + arg).c_str());
    const char* value = flag->name;  // a switch's value is its name
    if (flag->value != nullptr) {
      if (i + 1 >= argc) cli::usage((arg + " needs a value").c_str());
      value = argv[++i];
    }
    given_.emplace_back(flag->name, value);
  }
  jobs_ = count(kJobs.name, 0);
}

int Args::count(const char* name, int fallback) const {
  const char* v = value(name);
  return v != nullptr ? cli::parse_count(name, v, 1) : fallback;
}

const char* Args::value(const char* name, const char* fallback) const {
  const char* v = fallback;
  for (const auto& [n, given] : given_) {
    if (std::strcmp(n, name) == 0) v = given;
  }
  return v;
}

}  // namespace bench
}  // namespace mck
