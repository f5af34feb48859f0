#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "util/rng.h"

namespace openbg::rdf {
namespace {

TEST(TermDictTest, InternsAndDedupes) {
  TermDict dict;
  TermId a = dict.AddIri("http://x/a");
  TermId b = dict.AddIri("http://x/b");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.AddIri("http://x/a"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Text(a), "http://x/a");
}

TEST(TermDictTest, IriAndLiteralAreDistinctKeySpaces) {
  TermDict dict;
  TermId iri = dict.AddIri("x");
  TermId lit = dict.AddLiteral("x");
  EXPECT_NE(iri, lit);
  EXPECT_TRUE(dict.IsIri(iri));
  EXPECT_TRUE(dict.IsLiteral(lit));
}

TEST(TermDictTest, FindWithoutIntern) {
  TermDict dict;
  EXPECT_EQ(dict.FindIri("missing"), kInvalidTerm);
  TermId a = dict.AddLiteral("v");
  EXPECT_EQ(dict.FindLiteral("v"), a);
  EXPECT_EQ(dict.FindIri("v"), kInvalidTerm);
  EXPECT_EQ(dict.size(), 1u);
}

constexpr TermId A = TriplePattern::kAny;

class TripleStoreTest : public ::testing::Test {
 protected:
  TripleStoreTest() {
    s = d.AddIri("s");
    p = d.AddIri("p");
    o = d.AddIri("o");
    s2 = d.AddIri("s2");
    p2 = d.AddIri("p2");
    o2 = d.AddIri("o2");
  }
  TermDict d;
  TripleStore store;
  TermId s, p, o, s2, p2, o2;
};

TEST_F(TripleStoreTest, AddAndContains) {
  EXPECT_TRUE(store.Add(s, p, o));
  EXPECT_FALSE(store.Add(s, p, o)) << "duplicate must be rejected";
  EXPECT_TRUE(store.Contains(s, p, o));
  EXPECT_FALSE(store.Contains(s, p, o2));
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(TripleStoreTest, PatternMatching) {
  store.Add(s, p, o);
  store.Add(s, p, o2);
  store.Add(s, p2, o);
  store.Add(s2, p, o);

  EXPECT_EQ(store.Match({s, A, A}).size(), 3u);
  EXPECT_EQ(store.Match({s, p, A}).size(), 2u);
  EXPECT_EQ(store.Match({A, p, o}).size(), 2u);
  EXPECT_EQ(store.Match({A, A, o}).size(), 3u);
  EXPECT_EQ(store.Match({A, A, A}).size(), 4u);
  EXPECT_EQ(store.Match({s, p, o}).size(), 1u);
  EXPECT_EQ(store.Match({s2, p2, A}).size(), 0u);
}

TEST_F(TripleStoreTest, CountAndHelpers) {
  store.Add(s, p, o);
  store.Add(s, p, o2);
  store.Add(s2, p, o);
  EXPECT_EQ(store.CountMatches({s, p, A}), 2u);
  std::vector<TermId> objs = store.Objects(s, p);
  EXPECT_EQ(objs.size(), 2u);
  std::vector<TermId> subs = store.Subjects(p, o);
  EXPECT_EQ(subs.size(), 2u);
  EXPECT_NE(store.FirstObject(s, p), kInvalidTerm);
  EXPECT_EQ(store.FirstObject(o, p), kInvalidTerm);
}

TEST_F(TripleStoreTest, QueriesInterleavedWithInserts) {
  store.Add(s, p, o);
  EXPECT_EQ(store.CountMatches({s, A, A}), 1u);
  store.Add(s, p2, o2);  // dirties indexes after a sort
  EXPECT_EQ(store.CountMatches({s, A, A}), 2u);
  store.Add(s2, p, o);
  EXPECT_EQ(store.CountMatches({A, p, A}), 2u);
}

TEST_F(TripleStoreTest, DistinctPredicates) {
  store.Add(s, p, o);
  store.Add(s2, p, o2);
  store.Add(s, p2, o);
  std::vector<TermId> preds = store.DistinctPredicates();
  EXPECT_EQ(preds.size(), 2u);
}

TEST_F(TripleStoreTest, ForEachMatchEarlyStop) {
  store.Add(s, p, o);
  store.Add(s, p, o2);
  int seen = 0;
  store.ForEachMatchFn({s, p, A}, [&seen](const Triple&) {
    ++seen;
    return false;  // stop after the first
  });
  EXPECT_EQ(seen, 1);
}

TEST_F(TripleStoreTest, QuerySurfaceAgreesWithForEachMatchFn) {
  store.Add(s, p, o);
  store.Add(s, p2, o2);
  store.Add(s2, p, o);
  store.Add(s, p, o2);
  const TriplePattern patterns[] = {
      {s, A, A}, {A, p, A}, {A, A, o}, {s, p, A}, {A, p, o}, {A, A, A}};
  for (const TriplePattern& pattern : patterns) {
    std::vector<Triple> via_fn;
    store.ForEachMatchFn(pattern, [&via_fn](const Triple& t) {
      via_fn.push_back(t);
      return true;
    });
    EXPECT_EQ(via_fn, store.Match(pattern));
    EXPECT_EQ(via_fn.size(), store.CountMatches(pattern));
  }
  EXPECT_EQ(store.Objects(s, p), (std::vector<TermId>{o, o2}));
  EXPECT_EQ(store.Subjects(p, o), (std::vector<TermId>{s, s2}));
  EXPECT_EQ(store.FirstObject(s, p), o);
  EXPECT_EQ(store.FirstObject(s2, p2), kInvalidTerm);
}

TEST_F(TripleStoreTest, SealIndexesPreservesQueryResults) {
  store.Add(s, p, o);
  store.Add(s, p, o2);
  store.Add(s2, p2, o);
  store.SealIndexes();
  EXPECT_EQ(store.CountMatches({s, A, A}), 2u);
  EXPECT_EQ(store.CountMatches({A, p, A}), 2u);
  EXPECT_EQ(store.CountMatches({A, A, o}), 2u);
  // Sealing is idempotent, and later inserts re-dirty correctly.
  store.SealIndexes();
  store.Add(s2, p, o2);
  EXPECT_EQ(store.CountMatches({A, p, A}), 3u);
}

// A sealed store must serve many readers at once: every pattern family
// (SPO / POS / OSP prefix plus full scan) hammered from 8 threads, each
// checking against the counts a serial pass computed first.
TEST(TripleStoreConcurrencyTest, SealedStoreServesEightReaders) {
  TermDict d;
  TripleStore store;
  util::Rng rng(97);
  std::vector<TermId> subjects, predicates, objects;
  for (int i = 0; i < 40; ++i) {
    subjects.push_back(d.AddIri("s" + std::to_string(i)));
    objects.push_back(d.AddIri("o" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    predicates.push_back(d.AddIri("p" + std::to_string(i)));
  }
  for (int i = 0; i < 2000; ++i) {
    store.Add(subjects[rng.Uniform(subjects.size())],
              predicates[rng.Uniform(predicates.size())],
              objects[rng.Uniform(objects.size())]);
  }
  store.SealIndexes();

  std::vector<size_t> expected_s(subjects.size());
  std::vector<size_t> expected_p(predicates.size());
  for (size_t i = 0; i < subjects.size(); ++i) {
    expected_s[i] = store.CountMatches({subjects[i], A, A});
  }
  for (size_t i = 0; i < predicates.size(); ++i) {
    expected_p[i] = store.CountMatches({A, predicates[i], A});
  }
  const size_t total = store.CountMatches({A, A, A});

  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int w = 0; w < 8; ++w) {
    readers.emplace_back([&, w] {
      for (int round = 0; round < 50; ++round) {
        size_t si = (w + round) % subjects.size();
        size_t pi = (w + round) % predicates.size();
        if (store.CountMatches({subjects[si], A, A}) != expected_s[si] ||
            store.CountMatches({A, predicates[pi], A}) != expected_p[pi] ||
            store.CountMatches({A, A, A}) != total ||
            store.Objects(subjects[si], predicates[pi]).size() >
                expected_s[si]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Without SealIndexes, the first queries after inserts race to build the
// indexes; the mutex-guarded lazy path must keep them correct (and clean
// under -DOPENBG_SANITIZE=thread).
TEST(TripleStoreConcurrencyTest, LazyIndexBuildToleratesConcurrentReaders) {
  TermDict d;
  TripleStore store;
  TermId p = d.AddIri("p");
  std::vector<TermId> subjects;
  for (int i = 0; i < 64; ++i) {
    subjects.push_back(d.AddIri("s" + std::to_string(i)));
  }
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 8; ++j) {
      store.Add(subjects[i], p, d.AddIri("o" + std::to_string(j)));
    }
  }
  // No seal: all 8 threads' first queries hit the dirty-index slow path.
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int w = 0; w < 8; ++w) {
    readers.emplace_back([&] {
      for (size_t i = 0; i < subjects.size(); ++i) {
        if (store.CountMatches({subjects[i], A, A}) != 8u ||
            store.CountMatches({A, p, A}) != 64u * 8u) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(VocabTest, InternsW3cTerms) {
  TermDict dict;
  Vocab v(&dict);
  EXPECT_EQ(dict.Text(v.rdf_type), iri::kRdfType);
  EXPECT_EQ(dict.Text(v.skos_broader), iri::kSkosBroader);
  EXPECT_NE(v.rdfs_sub_class_of, v.rdfs_sub_property_of);
}

TEST(NTriplesTest, EscapeRoundTrip) {
  std::string raw = "line\"with\\stuff\nand\ttabs";
  std::string escaped = EscapeLiteral(raw);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  std::string back;
  ASSERT_TRUE(UnescapeLiteral(escaped, &back));
  EXPECT_EQ(back, raw);
}

TEST(NTriplesTest, BadEscapeRejected) {
  std::string out;
  EXPECT_FALSE(UnescapeLiteral("bad\\q", &out));
  EXPECT_FALSE(UnescapeLiteral("trailing\\", &out));
}

TEST(NTriplesTest, UnicodeEscapeRoundTrip) {
  std::string out;
  ASSERT_TRUE(UnescapeLiteral("snowman \\u2603 ok", &out));
  EXPECT_EQ(out, "snowman ☃ ok");
  out.clear();
  ASSERT_TRUE(UnescapeLiteral("astral \\U0001F600", &out));
  EXPECT_EQ(out, "astral \U0001F600");
  out.clear();
  ASSERT_TRUE(UnescapeLiteral("ascii \\u0041", &out));
  EXPECT_EQ(out, "ascii A");
}

TEST(NTriplesTest, AdversarialEscapesRejected) {
  std::string out;
  // Short / non-hex \u forms.
  EXPECT_FALSE(UnescapeLiteral("\\u123", &out));
  EXPECT_FALSE(UnescapeLiteral("\\u12", &out));
  EXPECT_FALSE(UnescapeLiteral("\\u", &out));
  EXPECT_FALSE(UnescapeLiteral("\\uZZZZ", &out));
  EXPECT_FALSE(UnescapeLiteral("\\u12G4", &out));
  EXPECT_FALSE(UnescapeLiteral("\\U0001F60", &out));
  EXPECT_FALSE(UnescapeLiteral("\\U0001F60X", &out));
  // Surrogate halves and out-of-range code points are not scalar values.
  EXPECT_FALSE(UnescapeLiteral("\\uD800", &out));
  EXPECT_FALSE(UnescapeLiteral("\\uDFFF", &out));
  EXPECT_FALSE(UnescapeLiteral("\\U00110000", &out));
  EXPECT_FALSE(UnescapeLiteral("\\UFFFFFFFF", &out));
}

TEST(NTriplesTest, ControlCharacterRoundTrip) {
  // Embedded NUL and other C0 controls survive a write/read cycle via
  // \u00XX escapes.
  std::string raw("nul\0bell\x07end", 12);
  std::string escaped = EscapeLiteral(raw);
  EXPECT_EQ(escaped.find('\0'), std::string::npos);
  std::string back;
  ASSERT_TRUE(UnescapeLiteral(escaped, &back));
  EXPECT_EQ(back, raw);
}

TEST(NTriplesTest, FileRoundTrip) {
  Graph g;
  TermId s = g.dict.AddIri("http://x/s");
  TermId p = g.dict.AddIri("http://x/p");
  TermId lit = g.dict.AddLiteral("value with \"quotes\" and\nnewline");
  TermId o = g.dict.AddIri("http://x/o");
  g.store.Add(s, p, o);
  g.store.Add(s, p, lit);

  std::string path = ::testing::TempDir() + "/openbg_rdf_test.nt";
  ASSERT_TRUE(WriteNTriples(g.store, g.dict, path).ok());

  Graph g2;
  ASSERT_TRUE(ReadNTriples(path, &g2.dict, &g2.store).ok());
  EXPECT_EQ(g2.store.size(), 2u);
  TermId s2 = g2.dict.FindIri("http://x/s");
  TermId p2 = g2.dict.FindIri("http://x/p");
  TermId lit2 = g2.dict.FindLiteral("value with \"quotes\" and\nnewline");
  ASSERT_NE(s2, kInvalidTerm);
  ASSERT_NE(lit2, kInvalidTerm);
  EXPECT_TRUE(g2.store.Contains(s2, p2, lit2));
  std::remove(path.c_str());
}

TEST(NTriplesTest, MalformedLineReported) {
  std::string path = ::testing::TempDir() + "/openbg_rdf_bad.nt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("<a> <b> <c> .\nnot a triple\n", f);
    fclose(f);
  }
  Graph g;
  util::Status st = ReadNTriples(path, &g.dict, &g.store);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find(":2"), std::string::npos)
      << "error should name line 2: " << st.ToString();
  std::remove(path.c_str());
}

TEST(NTriplesTest, LenientReadSkipsMalformedLinesWithCorrectCounts) {
  std::string path = ::testing::TempDir() + "/openbg_rdf_lenient.nt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("<a> <b> <c> .\n"
          "not a triple\n"
          "<d> <e> \"lit\" .\n"
          "<f> <g> <h>\n"            // missing terminator
          "\"lit\" <p> <o> .\n"      // literal subject
          "<i> <j> <k> .\n",
          f);
    fclose(f);
  }
  Graph g;
  util::ParseOptions lenient;
  lenient.policy = util::ParsePolicy::kSkipAndReport;
  util::ParseReport report;
  ASSERT_TRUE(
      ReadNTriples(path, &g.dict, &g.store, lenient, &report).ok());
  EXPECT_EQ(g.store.size(), 3u);
  EXPECT_EQ(report.records, 3u);
  EXPECT_EQ(report.skipped, 3u);
  ASSERT_EQ(report.error_samples.size(), 3u);
  EXPECT_EQ(report.error_samples[0].line, 2u);
  EXPECT_EQ(report.error_samples[1].line, 4u);
  EXPECT_EQ(report.error_samples[2].line, 5u);
  // Skipped lines intern nothing: no term from a bad line pollutes the
  // dictionary.
  EXPECT_EQ(g.dict.FindIri("f"), kInvalidTerm);
  EXPECT_EQ(g.dict.FindIri("p"), kInvalidTerm);
  EXPECT_NE(g.dict.FindIri("i"), kInvalidTerm);

  // A mostly-garbage file must not "load successfully": max_errors caps it.
  util::ParseOptions capped = lenient;
  capped.max_errors = 2;
  Graph g2;
  util::ParseReport capped_report;
  EXPECT_FALSE(
      ReadNTriples(path, &g2.dict, &g2.store, capped, &capped_report).ok());
  std::remove(path.c_str());
}

TEST(NTriplesTest, CommentsAndBlankLinesSkipped) {
  std::string path = ::testing::TempDir() + "/openbg_rdf_comment.nt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("# header comment\n\n<a> <b> \"lit\" .\n", f);
    fclose(f);
  }
  Graph g;
  ASSERT_TRUE(ReadNTriples(path, &g.dict, &g.store).ok());
  EXPECT_EQ(g.store.size(), 1u);
  std::remove(path.c_str());
}

// Property: for any handful of randomly generated triples, every bound
// pattern returns exactly the subset matching it.
class TripleStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TripleStorePropertyTest, PatternsAgreeWithLinearScan) {
  util::Rng rng(GetParam());
  TermDict dict;
  TripleStore store;
  std::vector<Triple> all;
  for (int i = 0; i < 200; ++i) {
    Triple t{static_cast<TermId>(dict.AddIri("s" + std::to_string(
                 rng.Uniform(10)))),
             static_cast<TermId>(dict.AddIri("p" + std::to_string(
                 rng.Uniform(5)))),
             static_cast<TermId>(dict.AddIri("o" + std::to_string(
                 rng.Uniform(10))))};
    if (store.Add(t)) all.push_back(t);
  }
  for (int trial = 0; trial < 30; ++trial) {
    TriplePattern pat;
    if (rng.Bernoulli(0.5)) pat.s = all[rng.Uniform(all.size())].s;
    if (rng.Bernoulli(0.5)) pat.p = all[rng.Uniform(all.size())].p;
    if (rng.Bernoulli(0.5)) pat.o = all[rng.Uniform(all.size())].o;
    size_t expected = 0;
    for (const Triple& t : all) {
      bool m = (pat.s == TriplePattern::kAny || pat.s == t.s) &&
               (pat.p == TriplePattern::kAny || pat.p == t.p) &&
               (pat.o == TriplePattern::kAny || pat.o == t.o);
      if (m) ++expected;
    }
    EXPECT_EQ(store.CountMatches(pat), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleStorePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TripleStoreIndexTest, SubjectObjectBoundUsesTwoComponentOspPrefix) {
  // Regression for the missing (o, s) OSP prefix: an (s, ?, o) pattern used
  // to fall back to the subject's whole SPO range and filter every triple
  // of a high-degree subject. The candidate range must be exactly the
  // triples sharing BOTH bound components.
  constexpr TermId kAny = TriplePattern::kAny;
  TripleStore store;
  for (TermId p = 10; p < 110; ++p) store.Add(1, p, 200 + p);  // hub subject
  store.Add(1, 500, 999);
  store.Add(1, 501, 999);
  store.Add(2, 500, 999);
  store.SealIndexes();

  TriplePattern pat{1, kAny, 999};
  EXPECT_EQ(store.CountMatches(pat), 2u);
  EXPECT_EQ(store.ScanCost(pat), 2u)
      << "(s, ?, o) must walk the (o, s) OSP prefix, not the subject range";
  // The subject's full range really is the expensive one we avoided.
  EXPECT_EQ(store.ScanCost(TriplePattern{1, kAny, kAny}), 102u);
  EXPECT_EQ(store.ScanCost(TriplePattern{kAny, kAny, 999}), 3u);
}

TEST(TripleStoreIndexTest, ScanCostBoundsHoldOnRandomData) {
  // Parity property: for every pattern shape, the candidate range covers
  // all matches (cost >= matches), and a two-bound pattern never scans
  // more than either of its one-bound relaxations — which fails if any
  // two-component prefix is missing from index selection.
  constexpr TermId kAny = TriplePattern::kAny;
  util::Rng rng(99);
  TripleStore store;
  for (int i = 0; i < 300; ++i) {
    store.Add(static_cast<TermId>(1 + rng.Uniform(12)),
              static_cast<TermId>(100 + rng.Uniform(6)),
              static_cast<TermId>(200 + rng.Uniform(12)));
  }
  store.SealIndexes();
  for (int trial = 0; trial < 60; ++trial) {
    TriplePattern pat;
    if (rng.Bernoulli(0.6)) pat.s = static_cast<TermId>(1 + rng.Uniform(12));
    if (rng.Bernoulli(0.6)) pat.p = static_cast<TermId>(100 + rng.Uniform(6));
    if (rng.Bernoulli(0.6)) pat.o = static_cast<TermId>(200 + rng.Uniform(12));
    size_t cost = store.ScanCost(pat);
    EXPECT_GE(cost, store.CountMatches(pat));
    EXPECT_LE(cost, store.size());
    int bound = (pat.s != kAny) + (pat.p != kAny) + (pat.o != kAny);
    if (bound == 2) {
      if (pat.s != kAny) {
        EXPECT_LE(cost, store.ScanCost(TriplePattern{pat.s, kAny, kAny}));
      }
      if (pat.p != kAny) {
        EXPECT_LE(cost, store.ScanCost(TriplePattern{kAny, pat.p, kAny}));
      }
      if (pat.o != kAny) {
        EXPECT_LE(cost, store.ScanCost(TriplePattern{kAny, kAny, pat.o}));
      }
    }
  }
}

}  // namespace
}  // namespace openbg::rdf
