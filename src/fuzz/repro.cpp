#include "fuzz/repro.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"

namespace mbcr::fuzz {

namespace {

// --- scalar helpers -------------------------------------------------------

/// 64-bit values survive JSON doubles only up to 2^53; anything larger is
/// serialized as a decimal string (same convention as StudySpec seeds).
constexpr std::int64_t kExactDouble = 1LL << 53;

json::Value value_json(ir::Value v) {
  if (v >= -kExactDouble && v <= kExactDouble) return json::Value(v);
  return json::Value(std::to_string(v));
}

json::Value u64_json(std::uint64_t v) {
  if (v <= static_cast<std::uint64_t>(kExactDouble)) return json::Value(v);
  return json::Value(std::to_string(v));
}

ir::Value value_from(const json::Value& v, const char* what) {
  if (v.is_number()) {
    return json::as_integer<ir::Value>(v, std::string("repro: ") + what);
  }
  if (v.is_string()) return std::stoll(v.as_string());
  throw std::invalid_argument(std::string("repro: ") + what +
                              " must be a number or decimal string");
}

std::uint64_t u64_from(const json::Value& v, const char* what) {
  if (v.is_number()) {
    return json::as_integer<std::uint64_t>(v, std::string("repro: ") + what);
  }
  if (v.is_string()) return std::stoull(v.as_string());
  throw std::invalid_argument(std::string("repro: ") + what +
                              " must be a number or decimal string");
}

template <typename T>
T int_at(const json::Value& obj, const char* key) {
  return json::as_integer<T>(obj.at(key), std::string("repro: ") + key);
}

// --- operator tables ------------------------------------------------------

struct BinOpName {
  ir::BinOp op;
  const char* name;
};
constexpr BinOpName kBinOps[] = {
    {ir::BinOp::kAdd, "add"},     {ir::BinOp::kSub, "sub"},
    {ir::BinOp::kMul, "mul"},     {ir::BinOp::kDiv, "div"},
    {ir::BinOp::kMod, "mod"},     {ir::BinOp::kShl, "shl"},
    {ir::BinOp::kShr, "shr"},     {ir::BinOp::kBitAnd, "bitand"},
    {ir::BinOp::kBitOr, "bitor"}, {ir::BinOp::kBitXor, "bitxor"},
    {ir::BinOp::kLt, "lt"},       {ir::BinOp::kLe, "le"},
    {ir::BinOp::kGt, "gt"},       {ir::BinOp::kGe, "ge"},
    {ir::BinOp::kEq, "eq"},       {ir::BinOp::kNe, "ne"},
    {ir::BinOp::kLAnd, "land"},   {ir::BinOp::kLOr, "lor"},
};

struct UnOpName {
  ir::UnOp op;
  const char* name;
};
constexpr UnOpName kUnOps[] = {
    {ir::UnOp::kNeg, "neg"},
    {ir::UnOp::kLNot, "lnot"},
    {ir::UnOp::kBitNot, "bitnot"},
};

const char* binop_name(ir::BinOp op) {
  for (const BinOpName& e : kBinOps) {
    if (e.op == op) return e.name;
  }
  throw std::invalid_argument("repro: unknown binary operator");
}

ir::BinOp binop_from(const std::string& name) {
  for (const BinOpName& e : kBinOps) {
    if (name == e.name) return e.op;
  }
  throw std::invalid_argument("repro: unknown binary operator '" + name + "'");
}

const char* unop_name(ir::UnOp op) {
  for (const UnOpName& e : kUnOps) {
    if (e.op == op) return e.name;
  }
  throw std::invalid_argument("repro: unknown unary operator");
}

ir::UnOp unop_from(const std::string& name) {
  for (const UnOpName& e : kUnOps) {
    if (name == e.name) return e.op;
  }
  throw std::invalid_argument("repro: unknown unary operator '" + name + "'");
}

// --- expressions ----------------------------------------------------------

json::Value expr_json(const ir::ExprPtr& e) {
  if (!e) return json::Value();
  json::Object o;
  switch (e->kind) {
    case ir::Expr::Kind::kConst:
      o.emplace_back("k", "const");
      o.emplace_back("v", value_json(e->value));
      break;
    case ir::Expr::Kind::kVar:
      o.emplace_back("k", "var");
      o.emplace_back("name", e->name);
      break;
    case ir::Expr::Kind::kIndex:
      o.emplace_back("k", "load");
      o.emplace_back("array", e->name);
      o.emplace_back("index", expr_json(e->a));
      break;
    case ir::Expr::Kind::kBin:
      o.emplace_back("k", "bin");
      o.emplace_back("op", binop_name(e->bin));
      o.emplace_back("l", expr_json(e->a));
      o.emplace_back("r", expr_json(e->b));
      break;
    case ir::Expr::Kind::kUn:
      o.emplace_back("k", "un");
      o.emplace_back("op", unop_name(e->un));
      o.emplace_back("x", expr_json(e->a));
      break;
    case ir::Expr::Kind::kSelect:
      o.emplace_back("k", "select");
      o.emplace_back("c", expr_json(e->a));
      o.emplace_back("t", expr_json(e->b));
      o.emplace_back("e", expr_json(e->c));
      break;
  }
  return json::Value(std::move(o));
}

ir::ExprPtr expr_from(const json::Value& v) {
  if (v.is_null()) return nullptr;
  const std::string& kind = v.at("k").as_string();
  if (kind == "const") return ir::cst(value_from(v.at("v"), "const value"));
  if (kind == "var") return ir::var(v.at("name").as_string());
  if (kind == "load") {
    return ir::ld(v.at("array").as_string(), expr_from(v.at("index")));
  }
  if (kind == "bin") {
    return ir::bin(binop_from(v.at("op").as_string()), expr_from(v.at("l")),
                   expr_from(v.at("r")));
  }
  if (kind == "un") {
    return ir::un(unop_from(v.at("op").as_string()), expr_from(v.at("x")));
  }
  if (kind == "select") {
    return ir::select(expr_from(v.at("c")), expr_from(v.at("t")),
                      expr_from(v.at("e")));
  }
  throw std::invalid_argument("repro: unknown expression kind '" + kind + "'");
}

// --- statements -----------------------------------------------------------

json::Value stmt_json(const ir::StmtPtr& s) {
  if (!s) return json::Value();
  json::Object o;
  switch (s->kind) {
    case ir::Stmt::Kind::kSeq: {
      o.emplace_back("s", "seq");
      json::Array children;
      for (const ir::StmtPtr& c : s->children) {
        children.push_back(stmt_json(c));
      }
      o.emplace_back("children", std::move(children));
      break;
    }
    case ir::Stmt::Kind::kAssign:
      o.emplace_back("s", "assign");
      o.emplace_back("name", s->name);
      o.emplace_back("value", expr_json(s->value));
      break;
    case ir::Stmt::Kind::kStore:
      o.emplace_back("s", "store");
      o.emplace_back("array", s->name);
      o.emplace_back("index", expr_json(s->index));
      o.emplace_back("value", expr_json(s->value));
      break;
    case ir::Stmt::Kind::kIf:
      o.emplace_back("s", "if");
      o.emplace_back("cond", expr_json(s->cond));
      o.emplace_back("then", stmt_json(s->children.at(0)));
      o.emplace_back("else", s->children.size() > 1
                                 ? stmt_json(s->children[1])
                                 : json::Value());
      break;
    case ir::Stmt::Kind::kFor:
      o.emplace_back("s", "for");
      o.emplace_back("var", s->name);
      o.emplace_back("init", expr_json(s->init));
      o.emplace_back("cond", expr_json(s->cond));
      o.emplace_back("step", value_json(s->step));
      o.emplace_back("max_trips", u64_json(s->max_trips));
      o.emplace_back("pad", s->pad_to_max);
      o.emplace_back("exact", s->exact_trips);
      o.emplace_back("body", stmt_json(s->children.at(0)));
      break;
    case ir::Stmt::Kind::kWhile:
      o.emplace_back("s", "while");
      o.emplace_back("cond", expr_json(s->cond));
      o.emplace_back("max_trips", u64_json(s->max_trips));
      o.emplace_back("pad", s->pad_to_max);
      o.emplace_back("body", stmt_json(s->children.at(0)));
      break;
    case ir::Stmt::Kind::kGhost:
      o.emplace_back("s", "ghost");
      o.emplace_back("body", stmt_json(s->children.at(0)));
      break;
    case ir::Stmt::Kind::kNop:
      o.emplace_back("s", "nop");
      break;
  }
  return json::Value(std::move(o));
}

ir::StmtPtr stmt_from(const json::Value& v) {
  if (v.is_null()) return nullptr;
  const std::string& kind = v.at("s").as_string();
  if (kind == "seq") {
    std::vector<ir::StmtPtr> children;
    for (const json::Value& c : v.at("children").as_array()) {
      children.push_back(stmt_from(c));
    }
    return ir::seq(std::move(children));
  }
  if (kind == "assign") {
    return ir::assign(v.at("name").as_string(), expr_from(v.at("value")));
  }
  if (kind == "store") {
    return ir::store(v.at("array").as_string(), expr_from(v.at("index")),
                     expr_from(v.at("value")));
  }
  if (kind == "if") {
    return ir::if_else(expr_from(v.at("cond")), stmt_from(v.at("then")),
                       stmt_from(v.at("else")));
  }
  if (kind == "for") {
    ir::StmtPtr loop = ir::for_loop(
        v.at("var").as_string(), expr_from(v.at("init")),
        expr_from(v.at("cond")), value_from(v.at("step"), "for step"),
        stmt_from(v.at("body")), u64_from(v.at("max_trips"), "max_trips"));
    loop->pad_to_max = v.at("pad").as_bool();
    loop->exact_trips = v.at("exact").as_bool();
    return loop;
  }
  if (kind == "while") {
    ir::StmtPtr loop =
        ir::while_loop(expr_from(v.at("cond")), stmt_from(v.at("body")),
                       u64_from(v.at("max_trips"), "max_trips"));
    loop->pad_to_max = v.at("pad").as_bool();
    return loop;
  }
  if (kind == "ghost") return ir::ghost(stmt_from(v.at("body")));
  if (kind == "nop") return ir::nop();
  throw std::invalid_argument("repro: unknown statement kind '" + kind + "'");
}

// --- program / inputs -----------------------------------------------------

json::Value program_json(const ir::Program& p) {
  json::Object o;
  o.emplace_back("name", p.name);
  json::Array arrays;
  for (const ir::ArrayDecl& a : p.arrays) {
    json::Object e;
    e.emplace_back("name", a.name);
    e.emplace_back("size", a.size);
    json::Array init;
    for (const ir::Value v : a.init) init.push_back(value_json(v));
    e.emplace_back("init", std::move(init));
    arrays.emplace_back(std::move(e));
  }
  o.emplace_back("arrays", std::move(arrays));
  json::Array scalars;
  for (const std::string& s : p.scalars) scalars.emplace_back(s);
  o.emplace_back("scalars", std::move(scalars));
  o.emplace_back("body", stmt_json(p.body));
  return json::Value(std::move(o));
}

ir::Program program_from(const json::Value& v) {
  ir::Program p;
  p.name = v.at("name").as_string();
  for (const json::Value& a : v.at("arrays").as_array()) {
    ir::ArrayDecl decl;
    decl.name = a.at("name").as_string();
    decl.size = int_at<std::size_t>(a, "size");
    for (const json::Value& x : a.at("init").as_array()) {
      decl.init.push_back(value_from(x, "array init"));
    }
    p.arrays.push_back(std::move(decl));
  }
  for (const json::Value& s : v.at("scalars").as_array()) {
    p.scalars.push_back(s.as_string());
  }
  p.body = stmt_from(v.at("body"));
  ir::validate(p);
  return p;
}

json::Value input_json(const ir::InputVector& in) {
  json::Object o;
  o.emplace_back("label", in.label);
  json::Object scalars;
  for (const auto& [name, value] : in.scalars) {
    scalars.emplace_back(name, value_json(value));
  }
  o.emplace_back("scalars", std::move(scalars));
  json::Object arrays;
  for (const auto& [name, contents] : in.arrays) {
    json::Array values;
    for (const ir::Value v : contents) values.push_back(value_json(v));
    arrays.emplace_back(name, std::move(values));
  }
  o.emplace_back("arrays", std::move(arrays));
  return json::Value(std::move(o));
}

ir::InputVector input_from(const json::Value& v) {
  ir::InputVector in;
  in.label = v.at("label").as_string();
  for (const auto& [name, value] : v.at("scalars").as_object()) {
    in.scalars[name] = value_from(value, "input scalar");
  }
  for (const auto& [name, values] : v.at("arrays").as_object()) {
    std::vector<ir::Value> contents;
    for (const json::Value& x : values.as_array()) {
      contents.push_back(value_from(x, "input array element"));
    }
    in.arrays[name] = std::move(contents);
  }
  return in;
}

// --- machine --------------------------------------------------------------

json::Value cache_json(const CacheConfig& c) {
  json::Object o;
  o.emplace_back("sets", c.sets);
  o.emplace_back("ways", c.ways);
  o.emplace_back("line_bytes", c.line_bytes);
  o.emplace_back("placement", to_string(c.placement));
  return json::Value(std::move(o));
}

CacheConfig cache_from(const json::Value& v) {
  CacheConfig c;
  c.sets = int_at<std::uint32_t>(v, "sets");
  c.ways = int_at<std::uint32_t>(v, "ways");
  c.line_bytes = int_at<Addr>(v, "line_bytes");
  c.placement = parse_placement(v.at("placement").as_string());
  c.validate();
  return c;
}

json::Value machine_json(const platform::MachineConfig& m) {
  json::Object o;
  o.emplace_back("il1", cache_json(m.il1));
  o.emplace_back("dl1", cache_json(m.dl1));
  {
    // The L2 geometry is always recorded: even a base config with the
    // hierarchy off feeds the oracles' flavor grid.
    json::Object l2;
    l2.emplace_back("enabled", m.l2.enabled);
    l2.emplace_back("geometry", cache_json(m.l2.l2));
    l2.emplace_back("policy", to_string(m.l2.policy));
    l2.emplace_back("latency", m.l2.latency);
    o.emplace_back("l2", json::Value(std::move(l2)));
  }
  {
    json::Object t;
    t.emplace_back("issue_cycles", m.timing.issue_cycles);
    t.emplace_back("dl1_hit_cycles", m.timing.dl1_hit_cycles);
    t.emplace_back("mem_latency", m.timing.mem_latency);
    o.emplace_back("timing", json::Value(std::move(t)));
  }
  return json::Value(std::move(o));
}

platform::MachineConfig machine_from(const json::Value& v) {
  platform::MachineConfig m;
  m.il1 = cache_from(v.at("il1"));
  m.dl1 = cache_from(v.at("dl1"));
  const json::Value& l2 = v.at("l2");
  m.l2.enabled = l2.at("enabled").as_bool();
  m.l2.l2 = cache_from(l2.at("geometry"));
  m.l2.policy = parse_l2_policy(l2.at("policy").as_string());
  m.l2.latency = int_at<std::uint64_t>(l2, "latency");
  const json::Value& t = v.at("timing");
  m.timing.issue_cycles = int_at<std::uint64_t>(t, "issue_cycles");
  m.timing.dl1_hit_cycles = int_at<std::uint64_t>(t, "dl1_hit_cycles");
  m.timing.mem_latency = int_at<std::uint64_t>(t, "mem_latency");
  return m;
}

}  // namespace

json::Value repro_to_json(const Repro& repro) {
  json::Object doc;
  doc.emplace_back("schema", "mbcr-fuzz-repro-v1");
  doc.emplace_back("oracle", repro.oracle);
  doc.emplace_back("detail", repro.detail);
  doc.emplace_back("case_seed", std::to_string(repro.data.case_seed));
  json::Array seeds;
  for (const std::uint64_t s : repro.data.run_seeds) {
    seeds.emplace_back(std::to_string(s));
  }
  doc.emplace_back("seeds", std::move(seeds));
  doc.emplace_back("machine", machine_json(repro.data.machine));
  doc.emplace_back("program", program_json(repro.data.program));
  json::Array inputs;
  for (const ir::InputVector& in : repro.data.inputs) {
    inputs.push_back(input_json(in));
  }
  doc.emplace_back("inputs", std::move(inputs));
  return json::Value(std::move(doc));
}

Repro repro_from_json(const json::Value& doc) {
  const json::Value* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "mbcr-fuzz-repro-v1") {
    throw std::invalid_argument(
        "repro: expected schema mbcr-fuzz-repro-v1");
  }
  Repro repro;
  repro.oracle = doc.at("oracle").as_string();
  repro.detail = doc.at("detail").as_string();
  repro.data.case_seed = u64_from(doc.at("case_seed"), "case_seed");
  for (const json::Value& s : doc.at("seeds").as_array()) {
    repro.data.run_seeds.push_back(u64_from(s, "run seed"));
  }
  repro.data.machine = machine_from(doc.at("machine"));
  repro.data.program = program_from(doc.at("program"));
  for (const json::Value& in : doc.at("inputs").as_array()) {
    repro.data.inputs.push_back(input_from(in));
  }
  return repro;
}

void save_repro(const Repro& repro, const std::string& path) {
  // Atomic (temp + rename): a repro file either exists complete or not at
  // all, even if the fuzzer is killed mid-write.
  std::ostringstream text;
  repro_to_json(repro).write(text, 2);
  text << "\n";
  util::write_file_atomic(path, text.str());
}

Repro load_repro(const std::string& path) {
  // Fail closed on missing/truncated/corrupt repro files: every error is
  // normalized to std::invalid_argument with the path (and, for parse
  // errors, the byte offset) attached, so the CLI reports it as a usage
  // error instead of replaying a half-decoded case.
  std::ifstream file(path);
  if (!file) throw std::invalid_argument("repro: cannot read " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  try {
    return repro_from_json(json::parse(buffer.str()));
  } catch (const std::exception& e) {
    throw std::invalid_argument("repro " + path + ": " + e.what());
  }
}

}  // namespace mbcr::fuzz
