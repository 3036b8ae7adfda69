//===- support/Json.cpp ---------------------------------------------------===//

#include "support/Json.h"

#include "support/Error.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>

using namespace svd;
using namespace svd::support;

std::string support::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += static_cast<char>(C);
    }
  }
  return Out;
}

std::string support::jsonString(const std::string &S) {
  return "\"" + jsonEscape(S) + "\"";
}

namespace {

/// Recursive-descent well-formedness checker. Tracks position only; the
/// values themselves are discarded.
class Validator {
public:
  explicit Validator(const std::string &S) : S(S) {}

  bool run(std::string *Error) {
    skipWs();
    bool Ok = value() && (skipWs(), Pos == S.size());
    if (!Ok && Error)
      *Error = Err.empty() ? formatString("unexpected input at offset %zu",
                                          Pos)
                           : Err;
    return Ok;
  }

private:
  bool fail(const char *What) {
    if (Err.empty())
      Err = formatString("%s at offset %zu", What, Pos);
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Lit) {
    size_t N = std::char_traits<char>::length(Lit);
    if (S.compare(Pos, N, Lit) != 0)
      return fail("invalid literal");
    Pos += N;
    return true;
  }

  bool string() {
    if (Pos >= S.size() || S[Pos] != '"')
      return fail("expected string");
    ++Pos;
    while (Pos < S.size()) {
      unsigned char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("raw control character in string");
      if (C == '\\') {
        ++Pos;
        if (Pos >= S.size())
          break;
        char E = S[Pos];
        if (E == 'u') {
          for (int I = 1; I <= 4; ++I)
            if (Pos + I >= S.size() || !std::isxdigit(
                                           static_cast<unsigned char>(
                                               S[Pos + I])))
              return fail("invalid \\u escape");
          Pos += 4;
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return fail("invalid escape");
        }
      }
      ++Pos;
    }
    return fail("unterminated string");
  }

  bool number() {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    if (Pos >= S.size() || !std::isdigit(static_cast<unsigned char>(S[Pos])))
      return fail("invalid number");
    if (S[Pos] == '0')
      ++Pos; // no leading zeros
    else
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      if (Pos >= S.size() ||
          !std::isdigit(static_cast<unsigned char>(S[Pos])))
        return fail("invalid fraction");
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      if (Pos >= S.size() ||
          !std::isdigit(static_cast<unsigned char>(S[Pos])))
        return fail("invalid exponent");
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    return Pos > Start;
  }

  bool value() {
    if (++Depth > 256)
      return fail("nesting too deep");
    bool Ok = valueInner();
    --Depth;
    return Ok;
  }

  bool valueInner() {
    skipWs();
    if (Pos >= S.size())
      return fail("unexpected end of input");
    switch (S[Pos]) {
    case '{': {
      ++Pos;
      skipWs();
      if (Pos < S.size() && S[Pos] == '}') {
        ++Pos;
        return true;
      }
      for (;;) {
        skipWs();
        if (!string())
          return false;
        skipWs();
        if (Pos >= S.size() || S[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        if (!value())
          return false;
        skipWs();
        if (Pos < S.size() && S[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < S.size() && S[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    case '[': {
      ++Pos;
      skipWs();
      if (Pos < S.size() && S[Pos] == ']') {
        ++Pos;
        return true;
      }
      for (;;) {
        if (!value())
          return false;
        skipWs();
        if (Pos < S.size() && S[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < S.size() && S[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  const std::string &S;
  size_t Pos = 0;
  int Depth = 0;
  std::string Err;
};

} // namespace

bool support::jsonValidate(const std::string &S, std::string *Error) {
  return Validator(S).run(Error);
}

bool support::writeJsonFile(const std::string &Path,
                            const std::string &Content) {
  std::string Err;
  if (!jsonValidate(Content, &Err))
    fatalError("internal error: emitted invalid JSON for '" + Path +
               "': " + Err);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  bool Written =
      F && std::fwrite(Content.data(), 1, Content.size(), F) == Content.size();
  // fclose flushes the buffer, so a full device only reports here.
  if (F && std::fclose(F) != 0)
    Written = false;
  if (!Written)
    std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
  return Written;
}
