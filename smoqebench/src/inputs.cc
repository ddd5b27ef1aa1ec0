// Workload inputs, generated from (workload, seed) alone: the hospital
// document, the roles (security views), the query pools and the writer's
// update cycle. Nothing here talks to the engine.

#include <cstdio>
#include <set>

#include "bench.h"
#include "src/workload/workloads.h"

namespace smoqebench {
namespace {

const char* const kMeds[] = {"autism", "headache", "flu", "cold"};
const char* const kTests[] = {"blood", "xray", "mri"};
const char* const kDates[] = {"2006-01-02", "2006-03-04", "2006-05-06"};

// The writer's role: every element but patient names is visible, so it
// may add and remove visits and swap treatments, while deleting a
// patient or grafting a name is denied.
const char kClinicPolicy[] = "patient/pname : N;\n";

// Genealogy shown only for patients treated for flu; tests hidden. Visits
// stay visible, so it speaks the clinic vocabulary.
const char kDerivedPolicy[] =
    "parent/patient : [visit/treatment/medication = 'flu'];\n"
    "treatment/test : N;\n";

/// Instantiates a template with the constants of slot `k`. Pools are
/// fixed per role, so the seed changes the document and the request order
/// but not the query mix, and runs on different seeds cost about the same.
std::string Fill(std::string t, size_t k) {
  auto sub = [&](const char* key, const char* const* vals, size_t n, size_t i) {
    for (size_t p; (p = t.find(key)) != std::string::npos;) {
      t.replace(p, 3, vals[i % n]);
    }
  };
  sub("{m}", kMeds, 4, k);
  sub("{t}", kTests, 3, k / 4);
  sub("{d}", kDates, 3, k / 2 + 1);
  return t;
}

// Query templates per view vocabulary. Vocabulary A: visits hidden, so
// treatments hang off patients in the view (research-style views).
// Vocabulary B: visits visible (clinic-style views). The mixed templates
// select hundreds to thousands of nodes on hospital-100k; the selective
// ones (stream_batch) chain conditions across genealogy levels and select
// tens, so batch responses stay small.
struct Templates {
  const char* const* a;
  const char* const* b;
  size_t n;
};
const char* const kMixedA[] = {
    "//treatment[medication = '{m}']",
    "//treatment[test = '{t}']",
    "//patient[parent/patient/treatment/medication = '{m}']/treatment[test = '{t}']",
    "hospital/patient/(parent/patient)*/treatment[medication = '{m}']",
    "//patient[not(parent)]/treatment[medication = '{m}']",
    "//parent/patient[treatment/test = '{t}']/treatment[medication = '{m}']",
    "//patient[treatment/medication = '{m}' and treatment/test = '{t}']/treatment[test]",
};
const char* const kMixedB[] = {
    "//visit[date = '{d}']/treatment[medication = '{m}']",
    "//treatment[test = '{t}']",
    "//patient[parent/patient/visit/treatment/medication = '{m}']/visit[treatment/test = '{t}']/date",
    "hospital/patient/(parent/patient)*/visit[date = '{d}']/treatment",
    "//patient[not(parent)]/visit/treatment[medication = '{m}']",
    "//parent/patient[visit/treatment/test = '{t}']/visit/date",
    "//patient[visit/treatment/medication = '{m}' and visit/date = '{d}']/visit/treatment[test]",
};
const char* const kSelectiveA[] = {
    "//patient[parent/patient[treatment/test = '{t}']/treatment/medication = '{m}']/treatment[medication = '{m}']",
    "//patient[not(parent) and treatment/medication = '{m}']/treatment[test = '{t}']",
    "//parent/patient[treatment/medication = '{m}' and parent/patient/treatment/test = '{t}']/treatment[test = '{t}']",
    "hospital/patient/parent/patient/parent/patient/treatment[medication = '{m}']",
};
const char* const kSelectiveB[] = {
    "//patient[parent/patient[visit/treatment/test = '{t}']/visit/treatment/medication = '{m}']/visit[date = '{d}']/treatment",
    "//patient[not(parent) and visit/treatment/medication = '{m}']/visit[treatment/test = '{t}']/date",
    "//parent/patient[visit/date = '{d}' and parent/patient/visit/treatment/medication = '{m}']/visit/treatment[test = '{t}']",
    "hospital/patient/parent/patient/parent/patient/visit[date = '{d}']/treatment",
};
const Templates kMixed{kMixedA, kMixedB, 7};
const Templates kSelective{kSelectiveA, kSelectiveB, 4};

/// `n` distinct queries from a vocabulary's templates, cycling through the
/// templates; `offset` shifts the constants so roles ask different things.
std::vector<std::string> Pool(const Templates& t, bool vocab_b, size_t n,
                              size_t offset) {
  const char* const* tpl = vocab_b ? t.b : t.a;
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (size_t i = 0; out.size() < n && i < 1000; ++i) {
    std::string q = Fill(tpl[i % t.n], i / t.n * 5 + i + offset);
    if (seen.insert(q).second) out.push_back(q);
  }
  return out;
}

}  // namespace

/// The writer's cycle over the clinic view. `variant` (0..35) picks the
/// constants of the selective patient predicate; BuildOracle moves on to
/// the next variant when a predicate selects nothing on the document.
std::vector<UpdateOp> WriterCycleVariant(int variant) {
  const std::string d = kDates[variant % 3];
  const std::string t = kTests[(variant / 3) % 3];
  const std::string m = kMeds[(variant / 9 + 1) % 4];
  const std::string pat = "//parent/patient[visit/date = '" + d +
                          "' and visit/treatment/test = '" + t +
                          "' and not(parent)]";
  return {
      {"insert into " + pat +
           " <visit><treatment><medication>bench</medication></treatment>"
           "<date>2099-12-31</date></visit>",
       true, 1},
      {"delete " + pat, false, -1},  // would remove a hidden pname
      {"delete //visit[date = '2099-12-31']", true, 0},
      {"replace " + pat + "/visit/treatment[medication = '" + m +
           "'] with <treatment><medication>ibuprofen</medication></treatment>",
       true, 2},
      {"insert into " + pat +
           " <parent><patient><pname>Zed</pname></patient></parent>",
       false, -1},  // would graft a hidden pname
      {"replace //treatment[medication = 'ibuprofen'] with "
       "<treatment><medication>" +
           m + "</medication></treatment>",
       true, 0},
  };
}

int CountElements(const std::string& text) {
  int n = 0;
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '<' && text[i + 1] != '/' && text[i + 1] != '?' &&
        text[i + 1] != '!') {
      ++n;
    }
  }
  return n;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kStreamBatch: return "stream_batch";
    case Workload::kRwMix: return "rw_mix";
  }
  return "?";
}

bool ParseWorkload(const std::string& s, Workload* w) {
  for (Workload c : {Workload::kStreamBatch, Workload::kRwMix}) {
    if (s == WorkloadName(c)) {
      *w = c;
      return true;
    }
  }
  return false;
}

Inputs MakeInputs(Workload w, uint64_t seed) {
  Inputs in;
  in.workload = w;
  in.name = WorkloadName(w);
  in.seed = seed;
  in.target_nodes = 100000;
  // The recursive hospital generator sometimes dies out early (a one-
  // patient document), so the document seed steps deterministically until
  // the element count lands in a band around the target's typical size.
  const int lo = 34000, hi = 38000;
  for (int attempt = 0;; ++attempt) {
    if (attempt == 200) Fail("no document in the size band for this seed");
    in.doc_seed = seed + static_cast<uint64_t>(attempt) * 0x9E3779B97F4A7C15ull;
    auto text = smoqe::workload::GenHospitalText(in.doc_seed, in.target_nodes);
    if (!text.ok()) Fail("document generation: " + text.status().ToString());
    in.doc_elements = CountElements(*text);
    if (in.doc_elements >= lo && in.doc_elements <= hi) {
      in.doc_text = text.MoveValue();
      break;
    }
  }

  // The views and query pools are fixed; the seed picks the document and
  // the order of requests.
  auto add_role = [&](std::string name, std::string policy,
                      std::vector<std::string> pool) {
    in.roles.push_back({std::move(name), std::move(policy)});
    in.queries.push_back(std::move(pool));
    return static_cast<int>(in.roles.size()) - 1;
  };
  const bool batch = w == Workload::kStreamBatch;
  const Templates& t = batch ? kSelective : kMixed;
  const size_t n = batch ? 12 : 8;
  const int research = add_role("research",
                                smoqe::workload::kHospitalPolicyResearch,
                                Pool(t, false, n, 0));
  // The writer (rw_mix) and the write probe (stream_batch) act as clinic.
  const int clinic = add_role("clinic", kClinicPolicy, Pool(t, true, n, 1));
  const int derived = add_role("derived", kDerivedPolicy, Pool(t, true, n, 2));
  const int autism = add_role("autism", smoqe::workload::kHospitalPolicyAutism,
                              Pool(t, false, n, 3));
  if (w == Workload::kRwMix) {
    in.reader_roles = {research, clinic, derived};
  } else {
    in.reader_roles = {research, clinic, derived, autism};
  }
  in.writer_role = clinic;
  in.writer_cycle = WriterCycleVariant(0);
  in.num_states = 3;
  return in;
}

}  // namespace smoqebench
