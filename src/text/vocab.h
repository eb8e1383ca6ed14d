// Token vocabulary with the special tokens used by TabBiN sequences.
//
// The paper takes its vocabulary from BioBERT; we train our own over the
// synthetic corpora (DESIGN.md substitution S2) but keep the same special
// tokens, including [VAL], which replaces every numeric literal in the
// token stream (paper §3.1 "Token").
#ifndef TABBIN_TEXT_VOCAB_H_
#define TABBIN_TEXT_VOCAB_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace tabbin {

/// \brief Bidirectional token <-> id mapping.
class Vocab {
 public:
  // Ids of the special tokens, fixed at the front of every vocabulary.
  static constexpr int kPadId = 0;
  static constexpr int kUnkId = 1;
  static constexpr int kClsId = 2;
  static constexpr int kSepId = 3;
  static constexpr int kMaskId = 4;
  static constexpr int kValId = 5;  // numeric literal placeholder
  static constexpr int kNumSpecialTokens = 6;

  Vocab();

  /// \brief Adds a token if absent; returns its id either way.
  int AddToken(const std::string& token);

  /// \brief Id for the token, or kUnkId if unknown.
  int GetId(const std::string& token) const;

  bool Contains(const std::string& token) const {
    return token_to_id_.count(token) > 0;
  }

  /// \brief Token text for an id (must be in range).
  const std::string& GetToken(int id) const { return tokens_[static_cast<size_t>(id)]; }

  int size() const { return static_cast<int>(tokens_.size()); }

  /// \brief Writes the token list into a byte stream.
  void Serialize(BinaryWriter* w) const;

  /// \brief Inverse of Serialize; rejects streams whose special-token
  /// prefix does not match this build's special tokens.
  static Result<Vocab> Deserialize(BinaryReader* r);

  static bool IsSpecialId(int id) { return id < kNumSpecialTokens; }

 private:
  std::vector<std::string> tokens_;
  std::unordered_map<std::string, int> token_to_id_;
};

}  // namespace tabbin

#endif  // TABBIN_TEXT_VOCAB_H_
