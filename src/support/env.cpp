#include "support/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace sympack::support {
namespace {

[[noreturn]] void reject(const char* name, const char* value,
                         const char* expected) {
  throw std::invalid_argument(std::string(name) + "=\"" + value +
                              "\" is not " + expected);
}

}  // namespace

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) {
    reject(name, v, "an integer");
  }
  return parsed;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    reject(name, v, "a number");
  }
  return parsed;
}

bool env_bool(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  std::string s(v);
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  reject(name, v, "a boolean (1/0, true/false, yes/no, on/off)");
}

}  // namespace sympack::support
