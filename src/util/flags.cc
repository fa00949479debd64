#include "util/flags.hh"

#include "util/logging.hh"

namespace ramp {
namespace util {

Result<std::uint64_t>
parseFlagInt(std::string_view flag, std::string_view value,
             std::uint64_t lo, std::uint64_t hi)
{
    const auto bad = [&] {
        return RampError{ErrorCode::InvalidInput,
                         cat(flag, " needs an integer from ", lo,
                             " to ", hi, ", got '", value, "'")};
    };
    if (value.empty())
        return bad();
    std::uint64_t n = 0;
    for (const char c : value) {
        if (c < '0' || c > '9')
            return bad();
        const auto digit = static_cast<std::uint64_t>(c - '0');
        // Checked before the arithmetic, so n never wraps.
        if (n > hi / 10 || digit > hi - n * 10)
            return bad();
        n = n * 10 + digit;
    }
    if (n < lo)
        return bad();
    return n;
}

Result<std::vector<std::uint16_t>>
parsePortList(std::string_view flag, std::string_view value)
{
    std::vector<std::uint16_t> ports;
    std::size_t start = 0;
    while (start <= value.size()) {
        std::size_t comma = value.find(',', start);
        if (comma == std::string_view::npos)
            comma = value.size();
        auto port = parseFlagInt(
            flag, value.substr(start, comma - start), 1, max_port);
        if (!port)
            return port.error();
        ports.push_back(static_cast<std::uint16_t>(port.value()));
        start = comma + 1;
    }
    return ports;
}

} // namespace util
} // namespace ramp
