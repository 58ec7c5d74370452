#include "common/cli.hpp"

#include <cstdlib>

#include "common/check.hpp"

namespace ft2 {

ArgParser::ArgParser(int argc, const char* const* argv,
                     std::map<std::string, bool> spec)
    : spec_(std::move(spec)) {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_inline_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    const auto it = spec_.find(arg);
    FT2_CHECK_MSG(it != spec_.end(), "unknown option --" << arg);
    if (it->second) {  // takes a value
      if (!has_inline_value) {
        FT2_CHECK_MSG(i + 1 < argc, "option --" << arg << " needs a value");
        value = argv[++i];
      }
      values_[arg] = value;
    } else {
      FT2_CHECK_MSG(!has_inline_value, "option --" << arg
                                                   << " takes no value");
      values_[arg] = std::string(1, '1');  // a literal draws GCC 12 -Wrestrict
    }
  }
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::size_t ArgParser::get_size(const std::string& name,
                                std::size_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return static_cast<std::size_t>(std::strtoull(it->second.c_str(), nullptr,
                                                10));
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

}  // namespace ft2
