/**
 * @file
 * Declarative key=value argument parsing for the command-line tools.
 *
 * A command declares one table of flags, each bound to the field it is
 * stored in. That table drives parsing, range checks, defaults (the
 * field's value before parsing) and the usage text. An integer flag
 * accepts by default exactly the range of its field, so no value is
 * ever narrowed or wrapped on the way in.
 */

#ifndef CONCORDE_TOOLS_CLI_ARGS_HH
#define CONCORDE_TOOLS_CLI_ARGS_HH

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace concorde::cli
{

struct Flag
{
    std::string key;
    /** Usage text after `key=`: the default, a <placeholder>, or a|b. */
    std::string shown;
    bool required = false;
    /**
     * Numeric flags: the accepted range, inclusive. A double holds every
     * integer field's bounds exactly, up to the int64_t parse bound.
     */
    double lo = 0, hi = 0;
    /** Text flags: the accepted values (empty: any). */
    std::vector<std::string> choices;
    /** Parse, check and store one value; false if it is rejected. */
    std::function<bool(const Flag &, const std::string &)> store;

    /** Narrow a numeric flag's range. */
    Flag &atLeast(double bound)
    {
        lo = bound;
        return *this;
    }
    Flag &atMost(double bound)
    {
        hi = bound;
        return *this;
    }

    Flag &require()
    {
        required = true;
        if (shown.empty() || shown.front() != '<')
            shown = "<" + key + ">";
        return *this;
    }
};

/** Strict integer parse: the whole string must be an int64_t. */
inline bool
parseInteger(const std::string &text, int64_t &value)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    value = std::strtoll(text.c_str(), &end, 10);
    return *end == '\0' && errno != ERANGE;
}

template <class T> struct Stored { using type = T; };
template <class T> struct Stored<std::optional<T>> { using type = T; };

/**
 * An integer flag stored in `field`: an integral type, bool, or a
 * std::optional of one (unset until given, shown as `placeholder`).
 */
template <class F>
Flag
integer(const char *key, F &field, const char *placeholder = "")
{
    using T = typename Stored<F>::type;
    static_assert(std::is_integral_v<T>, "integer flags need an integral "
                  "field");
    Flag f;
    f.key = key;
    if constexpr (std::is_same_v<F, T>)
        f.shown = std::to_string(static_cast<int64_t>(field));
    else
        f.shown = field ? std::to_string(*field) : placeholder;
    f.lo = static_cast<double>(std::numeric_limits<T>::min());
    f.hi = std::min(static_cast<double>(std::numeric_limits<T>::max()),
                    static_cast<double>(std::numeric_limits<int64_t>::max()));
    f.store = [&field](const Flag &self, const std::string &arg) {
        int64_t value = 0;
        if (!parseInteger(arg, value) || value < self.lo || value > self.hi)
            return false;
        field = static_cast<T>(value);
        return true;
    };
    return f;
}

/** A finite real in [lo, hi]; use std::nextafter for an open bound. */
inline Flag
real(const char *key, double &field, double lo, double hi)
{
    char shown[32];
    std::snprintf(shown, sizeof(shown), "%g", field);
    Flag f;
    f.key = key;
    f.shown = shown;
    f.lo = lo;
    f.hi = hi;
    f.store = [&field](const Flag &self, const std::string &arg) {
        char *end = nullptr;
        errno = 0;
        const double value = std::strtod(arg.c_str(), &end);
        if (*end != '\0' || errno == ERANGE || !std::isfinite(value)
            || value < self.lo || value > self.hi)
            return false;
        field = value;
        return true;
    };
    return f;
}

/**
 * A string, any or one of `choices` (listed default first); an empty
 * field shows as `placeholder`.
 */
inline Flag
text(const char *key, std::string &field, const char *placeholder,
     std::vector<std::string> choices = {})
{
    Flag f;
    f.key = key;
    f.shown = field.empty() ? placeholder : field;
    for (size_t i = 0; i < choices.size(); ++i)
        f.shown = (i ? f.shown + "|" : "") + choices[i];
    f.choices = std::move(choices);
    f.store = [&field](const Flag &self, const std::string &arg) {
        if (!self.choices.empty()
            && std::find(self.choices.begin(), self.choices.end(), arg)
                == self.choices.end())
            return false;
        field = arg;
        return true;
    };
    return f;
}

/** Handler for keys the table does not declare; false rejects the key. */
using Fallback =
    std::function<bool(const std::string &key, const std::string &value)>;

/**
 * Parse `args` (each `key=value`, value non-empty) against `flags`,
 * storing every value into its field. Keys outside the table go to
 * `fallback` when one is given and are errors otherwise. Prints a
 * diagnostic and returns false on a malformed argument, a rejected
 * value, or a missing required flag. A key given twice keeps its last
 * value.
 */
inline bool
parse(const std::vector<Flag> &flags, const std::vector<std::string> &args,
      const Fallback &fallback = nullptr)
{
    std::vector<bool> seen(flags.size(), false);
    for (const std::string &arg : args) {
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq + 1 == arg.size()) {
            std::fprintf(stderr, "malformed argument '%s' (expected "
                         "key=value)\n", arg.c_str());
            return false;
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        const auto it = std::find_if(flags.begin(), flags.end(),
            [&](const Flag &f) { return f.key == key; });
        if (it == flags.end()) {
            if (fallback) {
                if (!fallback(key, value))
                    return false;
                continue;
            }
            std::fprintf(stderr, "unknown option '%s'\n", key.c_str());
            return false;
        }
        if (!it->store(*it, value)) {
            if (it->choices.empty()) {
                std::fprintf(stderr, "bad value '%s' for '%s' (need a "
                             "number in [%.17g, %.17g])\n", value.c_str(),
                             key.c_str(), it->lo, it->hi);
            } else {
                std::fprintf(stderr, "bad value '%s' for '%s' (need %s)\n",
                             value.c_str(), key.c_str(), it->shown.c_str());
            }
            return false;
        }
        seen[it - flags.begin()] = true;
    }
    for (size_t i = 0; i < flags.size(); ++i) {
        if (flags[i].required && !seen[i]) {
            std::fprintf(stderr, "missing %s=%s\n", flags[i].key.c_str(),
                         flags[i].shown.c_str());
            return false;
        }
    }
    return true;
}

/**
 * Print one usage entry, "  <command> key=<x> [key=default ...]": the
 * required flags first, then the optional ones and, when the command
 * takes uarch overrides, `param=value ...`, wrapped at 79 columns under
 * the command's operands.
 */
inline void
printUsage(std::FILE *out, const std::string &command,
           const std::vector<Flag> &flags, bool overrides)
{
    std::vector<std::string> words;
    size_t required = 0;
    for (const Flag &f : flags) {
        if (f.required)
            words.insert(words.begin() + required++, f.key + "=" + f.shown);
        else
            words.push_back(f.key + "=" + f.shown);
    }
    if (overrides)
        words.push_back("param=value ...");
    if (words.size() > required) {
        words[required] = "[" + words[required];
        words.back() += "]";
    }

    const std::string indent(
        3 + std::min(command.find(' '), command.size()), ' ');
    std::string line = "  " + command;
    for (const std::string &word : words) {
        if (line.size() + 1 + word.size() > 79) {
            std::fprintf(out, "%s\n", line.c_str());
            line = indent + word;
        } else {
            line += " " + word;
        }
    }
    std::fprintf(out, "%s\n", line.c_str());
}

} // namespace concorde::cli

#endif // CONCORDE_TOOLS_CLI_ARGS_HH
