#include "text/vocab.h"

#include "util/serialize.h"

namespace tabbin {

Vocab::Vocab() {
  for (const char* t :
       {"[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[VAL]"}) {
    AddToken(t);
  }
}

int Vocab::AddToken(const std::string& token) {
  auto it = token_to_id_.find(token);
  if (it != token_to_id_.end()) return it->second;
  int id = static_cast<int>(tokens_.size());
  tokens_.push_back(token);
  token_to_id_.emplace(token, id);
  return id;
}

int Vocab::GetId(const std::string& token) const {
  auto it = token_to_id_.find(token);
  return it == token_to_id_.end() ? kUnkId : it->second;
}

void Vocab::Serialize(BinaryWriter* w) const {
  w->WriteU64(tokens_.size());
  for (const auto& t : tokens_) w->WriteString(t);
}

Result<Vocab> Vocab::Deserialize(BinaryReader* r) {
  TABBIN_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
  if (n < static_cast<uint64_t>(kNumSpecialTokens)) {
    return Status::ParseError("vocab stream missing special tokens");
  }
  Vocab v;
  for (uint64_t i = 0; i < n; ++i) {
    TABBIN_ASSIGN_OR_RETURN(std::string t, r->ReadString());
    if (i < static_cast<uint64_t>(kNumSpecialTokens)) {
      if (v.GetToken(static_cast<int>(i)) != t) {
        return Status::ParseError("vocab file special-token mismatch: " + t);
      }
      continue;
    }
    v.AddToken(t);
  }
  return v;
}

}  // namespace tabbin
