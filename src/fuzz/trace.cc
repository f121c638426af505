#include "src/fuzz/trace.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/util/checked_parse.h"

namespace komodo::fuzz {

namespace {

std::string Hex(word v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%x", v);
  return buf;
}

constexpr char kMagic[] = "komodo-fuzz-trace v1";

// Every line kind: its tag, operand count, and whether it is a header line
// (allowed at most once).
struct LineSpec {
  const char* tag;
  size_t operands;
  bool header;
};
constexpr LineSpec kLines[] = {
    {"oracle", 1, true}, {"seed", 1, true},  {"pages", 1, true},   {"inject", 1, true},
    {"victim", 1, true}, {"secrets", 2, true}, {"poke", 3, false}, {"smc", 5, false},
    {"svc", 4, false},   {"enter", 3, false},  {"resume", 0, false}, {"end", 0, false},
};

const LineSpec* FindLine(const std::string& tag) {
  for (const LineSpec& spec : kLines) {
    if (tag == spec.tag) {
      return &spec;
    }
  }
  return nullptr;
}

}  // namespace

size_t Trace::CallCount() const {
  size_t n = 0;
  for (const TraceOp& op : ops) {
    n += op.IsCall() ? 1 : 0;
  }
  return n;
}

std::string Trace::Format() const {
  std::ostringstream out;
  out << "komodo-fuzz-trace v1\n";
  out << "oracle " << oracle << "\n";
  out << "seed " << seed << "\n";
  out << "pages " << pages << "\n";
  if (!inject.empty()) {
    out << "inject " << inject << "\n";
  }
  if (!victim.empty()) {
    out << "victim " << victim << "\n";
    out << "secrets " << Hex(secrets[0]) << " " << Hex(secrets[1]) << "\n";
  }
  for (const TraceOp& op : ops) {
    switch (op.kind) {
      case OpKind::kPoke:
        out << "poke " << op.a[0] << " " << op.a[1] << " " << Hex(op.a[2]) << "\n";
        break;
      case OpKind::kSmc:
        out << "smc " << op.a[0] << " " << Hex(op.a[1]) << " " << Hex(op.a[2]) << " "
            << Hex(op.a[3]) << " " << Hex(op.a[4]) << "\n";
        break;
      case OpKind::kSvc:
        out << "svc " << op.a[0] << " " << Hex(op.a[1]) << " " << Hex(op.a[2]) << " "
            << Hex(op.a[3]) << "\n";
        break;
      case OpKind::kEnter:
        out << "enter " << Hex(op.a[1]) << " " << Hex(op.a[2]) << " " << Hex(op.a[3]) << "\n";
        break;
      case OpKind::kResume:
        out << "resume\n";
        break;
    }
  }
  out << "end\n";
  return out.str();
}

std::string Trace::Hash() const {
  const std::string text = Format();
  return crypto::DigestToHex(
      crypto::Sha256Hash(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
}

std::optional<Trace> Trace::Parse(const std::string& text, std::string* error) {
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  auto fail = [&](const std::string& why) -> std::optional<Trace> {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + why;
    }
    return std::nullopt;
  };
  // Tokens of the next line that is neither blank nor a comment; false at
  // the end of the text.
  std::vector<std::string> tok;
  auto next_line = [&]() {
    while (std::getline(in, line)) {
      ++lineno;
      if (!line.empty() && line[0] == '#') {
        continue;
      }
      std::istringstream ls(line);
      tok.clear();
      for (std::string w; ls >> w;) {
        tok.push_back(w);
      }
      if (!tok.empty()) {
        return true;
      }
    }
    return false;
  };

  // Comments and blank lines may precede the magic: committed corpus files
  // carry a header explaining what the witness demonstrates.
  if (!next_line() || line != kMagic) {
    return fail(std::string("expected '") + kMagic + "'");
  }
  Trace t;
  std::set<std::string> headers_seen;
  bool saw_end = false;
  while (!saw_end && next_line()) {
    const std::string& tag = tok[0];
    const LineSpec* spec = FindLine(tag);
    if (spec == nullptr) {
      return fail("unknown line '" + tag + "'");  // refuse rather than misreplay
    }
    if (tok.size() != spec->operands + 1) {
      return fail("'" + tag + "' takes " + std::to_string(spec->operands) +
                  " operand(s), got " + std::to_string(tok.size() - 1));
    }
    if (spec->header && !headers_seen.insert(tag).second) {
      return fail("duplicate '" + tag + "' line");
    }
    // Operands 1..n as 32-bit words into out[0..n-1]; `bad` names a misfit.
    std::string bad;
    auto words = [&](word* out, size_t n) {
      for (size_t i = 0; i < n; ++i) {
        if (!TryParseU32(tok[i + 1].c_str(), &out[i])) {
          bad = tok[i + 1];
          return false;
        }
      }
      return true;
    };
    bool ok = true;
    if (tag == "oracle") {
      t.oracle = tok[1];
    } else if (tag == "seed") {
      if (!TryParseU64(tok[1].c_str(), &t.seed)) {
        return fail("seed: expected an unsigned 64-bit integer, got '" + tok[1] + "'");
      }
    } else if (tag == "pages") {
      ok = words(&t.pages, 1);
      if (ok && (t.pages < 1 || t.pages > arm::kMaxSecurePages)) {
        return fail("pages must be in [1, " + std::to_string(arm::kMaxSecurePages) + "], got " +
                    tok[1]);
      }
    } else if (tag == "inject") {
      t.inject = tok[1];
    } else if (tag == "victim") {
      t.victim = tok[1];
    } else if (tag == "secrets") {
      ok = words(t.secrets, 2);
    } else if (tag == "end") {
      saw_end = true;
    } else {
      // An operation; Format() writes enter's operands to a[1..3].
      TraceOp op;
      op.kind = tag == "poke"    ? OpKind::kPoke
                : tag == "smc"   ? OpKind::kSmc
                : tag == "svc"   ? OpKind::kSvc
                : tag == "enter" ? OpKind::kEnter
                                 : OpKind::kResume;
      ok = words(op.kind == OpKind::kEnter ? &op.a[1] : op.a, spec->operands);
      t.ops.push_back(op);
    }
    if (!ok) {
      return fail(tag + ": expected an unsigned 32-bit integer, got '" + bad + "'");
    }
  }
  if (!saw_end) {
    return fail("missing 'end' line (truncated trace)");
  }
  if (next_line()) {
    return fail("unexpected '" + tok[0] + "' after 'end'");
  }
  if (t.oracle.empty()) {
    return fail("missing 'oracle' line");
  }
  return t;
}

bool Trace::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << Format();
  return static_cast<bool>(out);
}

std::optional<Trace> Trace::ReadFile(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open file";
    }
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str(), error);
}

}  // namespace komodo::fuzz
