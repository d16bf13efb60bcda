/**
 * @file
 * Whole-file reads for the JSON and JSONL readers.
 */

#ifndef XED_COMMON_FILE_HH
#define XED_COMMON_FILE_HH

#include <optional>
#include <string>

namespace xed
{

/** The bytes of the file at @p path; nullopt when it cannot be opened
 *  or read. Callers word their own error. */
std::optional<std::string> readFile(const std::string &path);

} // namespace xed

#endif // XED_COMMON_FILE_HH
