#ifndef OASIS_COMMON_FORMAT_H_
#define OASIS_COMMON_FORMAT_H_

#include <cstdio>
#include <string>

namespace oasis {

/// `value` as printf "%.17g": enough digits that strtod reads back the same
/// double, and dyadic rationals print in their exact shortest form on every
/// compiler. Every JSON, CSV, config and wire writer in the repo formats
/// numbers through this, which keeps their golden byte tests stable.
inline std::string FormatRoundTrip(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace oasis

#endif  // OASIS_COMMON_FORMAT_H_
