// check.h — error-handling primitives shared by every fgpred module.
//
// Convention (C++ Core Guidelines E.2/E.3): violations of *preconditions and
// invariants that depend on caller input* throw fgp::util::Error so that a
// misconfigured job or malformed chunk is reportable; internal logic errors
// use FGP_ASSERT which aborts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace fgp::util {

/// Base exception for all recoverable fgpred errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when deserialization encounters truncated or malformed bytes.
class SerializationError : public Error {
 public:
  explicit SerializationError(const std::string& what) : Error(what) {}
};

/// Thrown when a job/cluster configuration violates a documented constraint
/// (e.g. the FREERIDE-G rule that compute nodes >= data nodes).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

[[noreturn]] inline void assert_failure(const char* expr, const char* file,
                                        int line, const char* msg) {
  // Last words before abort(): the one place a library writes to stderr.
  std::fprintf(stderr, "fgpred internal invariant violated: %s at %s:%d%s%s\n",  // fgpcheck: allow(console-io)
               expr, file, line, msg[0] ? " — " : "", msg);
  std::abort();
}
}  // namespace detail

}  // namespace fgp::util

/// Validate a condition that depends on runtime input; throws fgp::util::Error.
#define FGP_CHECK(expr)                                                       \
  do {                                                                        \
    if (!(expr))                                                              \
      ::fgp::util::detail::throw_check_failure(#expr, __FILE__, __LINE__, ""); \
  } while (false)

/// FGP_CHECK with a context message (streamed-in string).
#define FGP_CHECK_MSG(expr, msg)                                              \
  do {                                                                        \
    if (!(expr)) {                                                            \
      std::ostringstream fgp_os_;                                             \
      fgp_os_ << msg;                                                         \
      ::fgp::util::detail::throw_check_failure(#expr, __FILE__, __LINE__,     \
                                               fgp_os_.str());                \
    }                                                                         \
  } while (false)

/// Internal invariant that no caller input can violate; aborts (never
/// throws) because a failure is a bug in fgpred itself. Enabled in every
/// build type — the virtual cluster is cheap enough to check always.
#define FGP_ASSERT(expr)                                                      \
  do {                                                                        \
    if (!(expr))                                                              \
      ::fgp::util::detail::assert_failure(#expr, __FILE__, __LINE__, "");     \
  } while (false)

/// FGP_ASSERT with a static context message (plain C string).
#define FGP_ASSERT_MSG(expr, msg)                                             \
  do {                                                                        \
    if (!(expr))                                                              \
      ::fgp::util::detail::assert_failure(#expr, __FILE__, __LINE__, msg);    \
  } while (false)
