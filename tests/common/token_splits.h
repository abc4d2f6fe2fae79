/**
 * @file
 * Test helpers for json::Reader's file windows: the kind of JSON token
 * a window boundary splits, and file writing/error capture.
 *
 * A file Reader reads its first window as bytes [0, kWindowBytes) of
 * the file, so writing a document behind s bytes of whitespace puts
 * that first refill between document bytes kWindowBytes - s - 1 and
 * kWindowBytes - s.
 */
#ifndef ASTRA_TESTS_COMMON_TOKEN_SPLITS_H_
#define ASTRA_TESTS_COMMON_TOKEN_SPLITS_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"

namespace astra {
namespace testing_json {

/** The token classes a window boundary can fall inside. */
enum class Tok { Space, Punct, String, Escape, UEscape, Number, Literal };

/**
 * Token of every byte of a valid JSON text: its class and an id that
 * two bytes share only if they are in one token. An escape sequence is
 * a token of its own inside its string.
 */
struct Lexed
{
    std::vector<Tok> cls;
    std::vector<size_t> id;

    explicit Lexed(const std::string &t) : cls(t.size()), id(t.size())
    {
        size_t next_id = 0;
        auto mark = [&](size_t from, size_t to, Tok k, size_t tok) {
            for (size_t j = from; j < to; ++j) {
                cls[j] = k;
                id[j] = tok;
            }
        };
        auto in = [&](size_t j, const char *set) {
            return j < t.size() && t[j] != '\0' &&
                   std::strchr(set, t[j]) != nullptr;
        };
        for (size_t i = 0; i < t.size();) {
            size_t tok = next_id++;
            size_t j = i + 1;
            if (in(i, " \t\r\n")) {
                while (in(j, " \t\r\n"))
                    ++j;
                mark(i, j, Tok::Space, tok);
            } else if (t[i] == '"') {
                mark(i, j, Tok::String, tok);
                while (t[j] != '"') {
                    if (t[j] == '\\') {
                        bool u = t[j + 1] == 'u';
                        size_t len = u ? 6 : 2;
                        mark(j, j + len, u ? Tok::UEscape : Tok::Escape,
                             next_id++);
                        j += len;
                    } else {
                        mark(j, j + 1, Tok::String, tok);
                        ++j;
                    }
                }
                mark(j, j + 1, Tok::String, tok);
                ++j;
            } else if (in(i, "-0123456789")) {
                while (in(j, "+-.eE0123456789"))
                    ++j;
                mark(i, j, Tok::Number, tok);
            } else if (in(i, "tfn")) {
                while (in(j, "truefalsn"))
                    ++j;
                mark(i, j, Tok::Literal, tok);
            } else {
                mark(i, j, Tok::Punct, tok);
            }
            i = j;
        }
    }

    /** True if bytes at - 1 and at are one token; @p k gets its class. */
    bool
    splitAt(size_t at, Tok &k) const
    {
        if (at == 0 || at >= id.size() || id[at - 1] != id[at])
            return false;
        k = cls[at];
        return true;
    }
};

/** Write @p text to a file in the test temp dir; returns its path. */
inline std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path = ::testing::TempDir() + "/" + name;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr) << path;
    if (f != nullptr) {
        EXPECT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
        std::fclose(f);
    }
    return path;
}

/** The FatalError message @p f throws, or "" if it returns. */
template <typename F>
std::string
errorOf(F &&f)
{
    try {
        f();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace testing_json
} // namespace astra

#endif // ASTRA_TESTS_COMMON_TOKEN_SPLITS_H_
