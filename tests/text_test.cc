// Tests for the WordPiece tokenizer and vocabulary.
#include <gtest/gtest.h>

#include "text/vocab.h"
#include "text/wordpiece.h"
#include "util/serialize.h"

namespace tabbin {
namespace {

TEST(VocabTest, SpecialTokensFixedAtFront) {
  Vocab v;
  EXPECT_EQ(v.GetId("[PAD]"), Vocab::kPadId);
  EXPECT_EQ(v.GetId("[UNK]"), Vocab::kUnkId);
  EXPECT_EQ(v.GetId("[CLS]"), Vocab::kClsId);
  EXPECT_EQ(v.GetId("[SEP]"), Vocab::kSepId);
  EXPECT_EQ(v.GetId("[MASK]"), Vocab::kMaskId);
  EXPECT_EQ(v.GetId("[VAL]"), Vocab::kValId);
  EXPECT_EQ(v.size(), Vocab::kNumSpecialTokens);
}

TEST(VocabTest, AddTokenIdempotent) {
  Vocab v;
  int id1 = v.AddToken("cancer");
  int id2 = v.AddToken("cancer");
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(v.GetToken(id1), "cancer");
}

TEST(VocabTest, UnknownTokenMapsToUnk) {
  Vocab v;
  EXPECT_EQ(v.GetId("nonexistent"), Vocab::kUnkId);
}

TEST(VocabTest, SaveLoadRoundTrip) {
  Vocab v;
  v.AddToken("alpha");
  v.AddToken("##beta");
  BinaryWriter w;
  v.Serialize(&w);
  BinaryReader r(w.buffer());
  auto loaded = Vocab::Deserialize(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(loaded.value().size(), v.size());
  EXPECT_EQ(loaded.value().GetId("alpha"), v.GetId("alpha"));
  EXPECT_EQ(loaded.value().GetId("##beta"), v.GetId("##beta"));
}

TEST(PreTokenizeTest, SplitsWordsAndLowercases) {
  auto units = PreTokenize("Overall Survival");
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0], "overall");
  EXPECT_EQ(units[1], "survival");
}

TEST(PreTokenizeTest, KeepsDecimalsTogether) {
  auto units = PreTokenize("20.3 months");
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0], "20.3");
  EXPECT_EQ(units[1], "months");
}

TEST(PreTokenizeTest, SeparatesPunctuation) {
  auto units = PreTokenize("5.2% (CI)");
  ASSERT_EQ(units.size(), 5u);
  EXPECT_EQ(units[0], "5.2");
  EXPECT_EQ(units[1], "%");
  EXPECT_EQ(units[2], "(");
  EXPECT_EQ(units[3], "ci");
  EXPECT_EQ(units[4], ")");
}

TEST(PreTokenizeTest, HandlesUtf8Symbols) {
  auto units = PreTokenize("5.2 ± 1.1");
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[1], "±");
}

TEST(PreTokenizeTest, EmptyInput) {
  EXPECT_TRUE(PreTokenize("").empty());
  EXPECT_TRUE(PreTokenize("   ").empty());
}

TEST(PreTokenizeTest, SplitsDigitsFromLetters) {
  auto units = PreTokenize("covid19");
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0], "covid");
  EXPECT_EQ(units[1], "19");
}

TEST(WordPieceTest, SegmentsKnownWordWhole) {
  Vocab v;
  v.AddToken("cancer");
  auto pieces = WordPieceSegment("cancer", v);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "cancer");
}

TEST(WordPieceTest, SegmentsIntoSubwords) {
  Vocab v;
  v.AddToken("can");
  v.AddToken("##cer");
  auto pieces = WordPieceSegment("cancer", v);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], "can");
  EXPECT_EQ(pieces[1], "##cer");
}

TEST(WordPieceTest, GreedyLongestMatchFirst) {
  Vocab v;
  v.AddToken("c");
  v.AddToken("can");
  v.AddToken("##c");
  v.AddToken("##e");
  v.AddToken("##r");
  v.AddToken("##a");
  v.AddToken("##n");
  auto pieces = WordPieceSegment("cancer", v);
  EXPECT_EQ(pieces[0], "can");  // longest prefix wins over 'c'
}

TEST(WordPieceTest, UnknownWordBecomesUnk) {
  Vocab v;  // no character coverage
  auto pieces = WordPieceSegment("xyz", v);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "[UNK]");
}

TEST(WordPieceTest, OverlongWordBecomesUnk) {
  Vocab v;
  std::string longword(200, 'a');
  auto pieces = WordPieceSegment(longword, v, /*max_word_len=*/64);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "[UNK]");
}

TEST(TrainVocabTest, CoversCorpusWithoutUnk) {
  std::vector<std::string> corpus = {
      "overall survival months",  "progression free survival",
      "overall response rate",    "hazard ratio confidence",
      "patients treated cohort",  "survival months patients",
  };
  Vocab v = TrainWordPieceVocab(corpus, /*max_size=*/500, /*min_count=*/1);
  for (const auto& text : corpus) {
    for (int id : TokenizeToIds(text, v)) {
      EXPECT_NE(id, Vocab::kUnkId) << "in text: " << text;
    }
  }
}

TEST(TrainVocabTest, FrequentWordsAreWholeTokens) {
  std::vector<std::string> corpus(20, "survival analysis");
  Vocab v = TrainWordPieceVocab(corpus, 500, 2);
  EXPECT_TRUE(v.Contains("survival"));
  EXPECT_TRUE(v.Contains("analysis"));
}

TEST(TrainVocabTest, RareWordsDecomposeViaCharacters) {
  std::vector<std::string> corpus = {"aaa bbb", "aaa bbb", "zq"};
  Vocab v = TrainWordPieceVocab(corpus, 500, /*min_count=*/2);
  // "zq" occurs once (< min_count): must decompose into chars, not UNK.
  auto pieces = WordPieceSegment("zq", v);
  EXPECT_GE(pieces.size(), 1u);
  EXPECT_NE(pieces[0], "[UNK]");
}

TEST(TrainVocabTest, RespectsMaxSize) {
  std::vector<std::string> corpus;
  for (int i = 0; i < 200; ++i) {
    corpus.push_back("word" + std::to_string(i) + " occurs twice");
    corpus.push_back("word" + std::to_string(i) + " occurs twice");
  }
  Vocab v = TrainWordPieceVocab(corpus, /*max_size=*/100, 2);
  EXPECT_LE(v.size(), 100 + 2);  // small slack for char inventory
}

TEST(TokenizeTest, EndToEnd) {
  std::vector<std::string> corpus = {"median overall survival 20.3 months"};
  Vocab v = TrainWordPieceVocab(corpus, 500, 1);
  auto ids = TokenizeToIds("overall survival", v);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(v.GetToken(ids[0]), "overall");
  EXPECT_EQ(v.GetToken(ids[1]), "survival");
}

}  // namespace
}  // namespace tabbin
