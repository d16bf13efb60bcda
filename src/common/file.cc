#include "common/file.hh"

#include <fstream>
#include <sstream>

namespace xed
{

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return std::move(buffer).str();
}

} // namespace xed
