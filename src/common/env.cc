#include "common/env.h"

#include <cstdlib>

#include "common/string_util.h"

namespace silofuse {

bool IsEnvOffWord(std::string_view value) {
  const std::string word = ToLower(value);
  return word == "0" || word == "off" || word == "false" || word == "no" ||
         word == "n";
}

bool EnvFlag(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return !IsEnvOffWord(value);
}

}  // namespace silofuse
