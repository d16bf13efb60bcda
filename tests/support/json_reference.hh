/**
 * @file
 * The number I/O json.cc used before it moved to to_chars/from_chars,
 * kept as the reference half of its byte-identity contract:
 * tests/common/test_json_equivalence.cc requires json::formatDouble()
 * to return these bytes and json::parse() to read every number token
 * to this value, bit for bit.
 *
 * These are deliberate verbatim copies: snprintf("%.{P}g") for
 * P = 1..17 with a strtod round-trip check, and strtoull / strtoll /
 * strtod on a std::string token. Do not "optimize" them -- their
 * value is being the old code.
 */

#ifndef XED_TESTS_SUPPORT_JSON_REFERENCE_HH
#define XED_TESTS_SUPPORT_JSON_REFERENCE_HH

#include <optional>
#include <string>

#include "common/json.hh"

namespace xed::json::reference
{

/** formatDouble() as the 1..17 precision loop. */
std::string formatDouble(double d);

/**
 * The value json::parse() gave a number token that passed its grammar
 * check: uint64 / int64 when an integral token fits, else the strtod
 * double; nullopt ("number out of range") when that is not finite.
 */
std::optional<Value> parseNumberToken(const std::string &token);

} // namespace xed::json::reference

#endif // XED_TESTS_SUPPORT_JSON_REFERENCE_HH
