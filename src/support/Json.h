//===- support/Json.h - Minimal JSON emission helpers -----------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Just enough JSON for the CLIs' `--json` output: string escaping for
/// the writers, and a strict validator the tests use to pin that every
/// emitted document actually parses. Deliberately not a DOM — the
/// writers compose documents with ostringstream, which keeps the output
/// order deterministic and the dependencies zero.
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SUPPORT_JSON_H
#define SVD_SUPPORT_JSON_H

#include <string>

namespace svd {
namespace support {

/// Escapes \p S for inclusion in a JSON string literal (quotes not
/// included): backslash, quote, and control characters.
std::string jsonEscape(const std::string &S);

/// \p S quoted and escaped, ready to splice into a document.
std::string jsonString(const std::string &S);

/// Strict RFC 8259 well-formedness check of a complete document.
/// Returns true when \p S is exactly one valid JSON value (plus
/// whitespace); on failure, \p Error (when non-null) receives a
/// diagnostic with a byte offset.
bool jsonValidate(const std::string &S, std::string *Error = nullptr);

/// Writes \p Content to \p Path after asserting it is valid JSON (every
/// emitter promises a well-formed document; a failure there is a bug,
/// not user error). Returns false, with a message on stderr, when the
/// file cannot be opened or fully written.
bool writeJsonFile(const std::string &Path, const std::string &Content);

} // namespace support
} // namespace svd

#endif // SVD_SUPPORT_JSON_H
