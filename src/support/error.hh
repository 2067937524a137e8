/**
 * @file
 * Recoverable-error plumbing: support::Error (an error code plus a
 * file:line context chain) and support::Expected<T> (a value or an
 * Error). Everything below the app layer that can fail on user input
 * or I/O returns Expected instead of calling fatal(), so one corrupt
 * trace file or failed write can never kill a long-lived analysis
 * session -- the paper's workflow is minutes of slicing, aggregating
 * and dragging over one loaded trace, and the session must outlive
 * every bad byte it meets.
 *
 * Conventions:
 *  - construct errors with VIVA_ERROR(code, parts...), which stamps the
 *    originating file:line;
 *  - when propagating across a layer boundary, re-stamp with
 *    VIVA_ERROR_CONTEXT(err, "what the caller was doing") so the final
 *    diagnostic reads as a chain from the failure point to the command;
 *  - fatal()/panic() remain legal only in src/app and at CLI mains
 *    (enforced by the viva-analyze rule `fatal-reachable`).
 */

#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "support/logging.hh"

namespace viva::support
{

/** Coarse classification of a recoverable failure. */
enum class Errc
{
    Io,        ///< open/read/write on a file or stream failed
    Parse,     ///< the input violates its format
    Budget,    ///< a parse budget (line length, containers, ...) hit
    NotFound,  ///< a named entity does not exist
    Invalid,   ///< a valid-looking request cannot be satisfied
    Deadline,  ///< an operation ran past its support::Deadline
};

/** Stable lower-case name of an error code ("io", "parse", ...). */
const char *errcName(Errc code);

/**
 * One recoverable error: a code, a human message, and the chain of
 * file:line frames it passed through (innermost first).
 */
class Error
{
  public:
    /** One hop of the propagation chain. */
    struct Frame
    {
        const char *file;   ///< __FILE__ of the stamp (static storage)
        unsigned line;      ///< __LINE__ of the stamp
        std::string note;   ///< what that layer was doing (may be empty)
    };

    Error(Errc code, std::string message)
        : ec(code), msg(std::move(message))
    {
    }

    Errc code() const { return ec; }
    const std::string &message() const { return msg; }
    const std::vector<Frame> &context() const { return frames; }

    /** Append a propagation frame; returns the error for chaining. */
    Error
    withContext(const char *file, unsigned line,
                std::string note = {}) &&
    {
        frames.push_back({file, line, std::move(note)});
        return std::move(*this);
    }

    /**
     * One-line rendering: "parse: line 3: bad id [src/trace/io.cc:150
     * <- src/app/session.cc:510: loading 'x.viva']".
     */
    std::string toString() const;

  private:
    Errc ec;
    std::string msg;
    std::vector<Frame> frames;
};

/**
 * A value or an Error. [[nodiscard]] so a failed write can never be
 * silently dropped; interface follows std::optional (has_value, *, ->)
 * plus ok()/error().
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : state(std::in_place_index<0>, std::move(value))
    {
    }

    Expected(Error error)
        : state(std::in_place_index<1>, std::move(error))
    {
    }

    bool ok() const { return state.index() == 0; }
    bool has_value() const { return ok(); }
    explicit operator bool() const { return ok(); }

    T &
    value() &
    {
        VIVA_ASSERT(ok(), "Expected::value() on error: ",
                    std::get<1>(state).toString());
        return std::get<0>(state);
    }

    const T &
    value() const &
    {
        VIVA_ASSERT(ok(), "Expected::value() on error: ",
                    std::get<1>(state).toString());
        return std::get<0>(state);
    }

    T &&
    value() &&
    {
        VIVA_ASSERT(ok(), "Expected::value() on error: ",
                    std::get<1>(state).toString());
        return std::get<0>(std::move(state));
    }

    T &operator*() & { return value(); }
    const T &operator*() const & { return value(); }
    T &&operator*() && { return std::move(*this).value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

    Error &
    error()
    {
        VIVA_ASSERT(!ok(), "Expected::error() on a value");
        return std::get<1>(state);
    }

    const Error &
    error() const
    {
        VIVA_ASSERT(!ok(), "Expected::error() on a value");
        return std::get<1>(state);
    }

  private:
    std::variant<T, Error> state;
};

/** The void specialization: success, or an Error. */
template <>
class [[nodiscard]] Expected<void>
{
  public:
    Expected() = default;
    Expected(Error error) : err(std::move(error)) {}

    bool ok() const { return !err.has_value(); }
    bool has_value() const { return ok(); }
    explicit operator bool() const { return ok(); }

    /**
     * Assert success (the std::expected<void, E>::value() analogue);
     * the idiom for call sites where failure is impossible by
     * construction, e.g. a cancellable operation given no deadline.
     */
    void
    value() const
    {
        VIVA_ASSERT(ok(), "Expected<void>::value() on error: ",
                    err->toString());
    }

    Error &
    error()
    {
        VIVA_ASSERT(!ok(), "Expected::error() on a value");
        return *err;
    }

    const Error &
    error() const
    {
        VIVA_ASSERT(!ok(), "Expected::error() on a value");
        return *err;
    }

  private:
    std::optional<Error> err;
};

/**
 * Unwrap or exit -- the app/CLI boundary adapter. Library code must
 * propagate Expected; a main() that cannot continue calls this.
 */
template <typename T>
T
valueOrDie(Expected<T> result, const std::string &where)  // viva-analyze: allow(fatal-reachable): the CLI boundary adapter; dying is its contract
{
    if (!result) {
        // The one sanctioned escape hatch to fatal(): this helper IS
        // the CLI boundary.
        fatal(where, result.error().toString());
    }
    return std::move(result).value();
}

/** okOrDie: the Expected<void> flavour of valueOrDie. */
inline void
okOrDie(const Expected<void> &result, const std::string &where)  // viva-analyze: allow(fatal-reachable): the CLI boundary adapter; dying is its contract
{
    if (!result) {
        fatal(where, result.error().toString());
    }
}

} // namespace viva::support

/** Build an Error stamped with the current file:line. */
#define VIVA_ERROR(code, ...)                                            \
    (::viva::support::Error((code),                                      \
                            ::viva::support::detail::concat(             \
                                __VA_ARGS__))                            \
         .withContext(__FILE__, __LINE__))

/** Re-stamp an existing (lvalue) Error while propagating it upward. */
#define VIVA_ERROR_CONTEXT(err, ...)                                     \
    (std::move(err).withContext(                                         \
        __FILE__, __LINE__,                                              \
        ::viva::support::detail::concat(__VA_ARGS__)))
