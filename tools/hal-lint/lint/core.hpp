// hal-lint core: source loading, a C++ token stream, suppression comments,
// and diagnostics.
//
// hal-lint is a contract checker for HAL's runtime idioms, not a general
// C++ front end. The engine lexes real tokens (so string/comment contents
// never confuse the checks) and recognises the structural subset of C++
// that the HAL codebase uses: namespaces, classes, member and free function
// definitions, call expressions, lambdas. That subset is enough to state
// the five contracts precisely; anything the parser cannot classify is
// skipped, never guessed at.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hal::lint {

enum class Tok : std::uint8_t {
  Identifier,  ///< identifiers and keywords (checks compare text)
  Number,      ///< integer / floating literal, including suffixes
  String,      ///< string literal (text includes quotes), raw strings too
  Char,        ///< character literal
  Punct,       ///< operator / punctuator, longest-match ("::", "->", ...)
};

struct Token {
  Tok kind = Tok::Punct;
  std::string_view text;  ///< view into SourceFile::contents
  std::uint32_t line = 0;  ///< 1-based
  std::uint32_t col = 0;   ///< 1-based, byte column
};

struct Comment {
  std::string_view text;   ///< without the // or /* */ delimiters
  std::uint32_t line = 0;  ///< line the comment starts on
  std::uint32_t col = 0;
  bool own_line = false;  ///< nothing but whitespace precedes it on its line
};

/// A parsed `HAL_LINT_SUPPRESS(check[, check...]): reason` comment.
///
/// Placement rules: a suppression on the same line as the offending code
/// silences diagnostics on that line; a suppression alone on its own line
/// silences the next line that holds any token (so it can sit above a long
/// statement). A suppression on a class-head line is honoured class-wide by
/// checks that say so (capability coverage).
struct Suppression {
  std::vector<std::string> checks;  ///< check ids or codes; "*" for all
  std::uint32_t line = 0;           ///< line of the comment itself
  std::uint32_t applies_to = 0;     ///< line whose diagnostics it silences
  bool has_reason = false;          ///< a non-empty reason string followed
  bool used = false;                ///< hit by at least one diagnostic
};

struct Diagnostic {
  std::string file;
  std::uint32_t line = 0;
  std::uint32_t col = 0;
  std::string check;  ///< check id, e.g. "hal-handler-purity"
  std::string message;
};

class SourceFile {
 public:
  /// Reads and lexes `path`. Returns nullptr if the file cannot be read.
  static std::unique_ptr<SourceFile> load(std::string path);

  /// Lexes `contents` under the given display path (for tests).
  static std::unique_ptr<SourceFile> from_string(std::string path,
                                                 std::string contents);

  const std::string& path() const { return path_; }
  const std::vector<Token>& tokens() const { return tokens_; }
  const std::vector<Comment>& comments() const { return comments_; }
  const std::vector<Suppression>& suppressions() const {
    return suppressions_;
  }
  std::vector<Suppression>& suppressions() { return suppressions_; }

  /// True if a suppression covering `check` (by id, code, or "*") applies
  /// to `line`. Marks the suppression used.
  bool is_suppressed(std::string_view check, std::uint32_t line);

 private:
  void lex();
  void parse_suppressions();

  std::string path_;
  std::string contents_;
  std::vector<Token> tokens_;
  std::vector<Comment> comments_;
  std::vector<Suppression> suppressions_;
};

/// True for text that looks like one of hal-lint's own check identifiers
/// ("hal-..." id or "HLnnn" code). Used to flag typos inside suppressions.
bool is_known_check_name(std::string_view name);

}  // namespace hal::lint
