#ifndef SILOFUSE_COMMON_ENV_H_
#define SILOFUSE_COMMON_ENV_H_

#include <string_view>

namespace silofuse {

/// True for the words that switch a boolean SILOFUSE_* knob off: "0",
/// "off", "false", "no" and "n", in any case.
bool IsEnvOffWord(std::string_view value);

/// Reads the boolean environment knob `name`: unset or empty gives
/// `fallback`, an off word (IsEnvOffWord) gives false, anything else true.
bool EnvFlag(const char* name, bool fallback);

}  // namespace silofuse

#endif  // SILOFUSE_COMMON_ENV_H_
