#include "report/record_reader.hpp"

#include <charconv>

namespace dsm::report {
namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

/// Required member of `obj`, with the member name in the diagnostic.
const JsonValue* require(const JsonValue& obj, const char* key,
                         std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    fail(error, std::string("record is missing field '") + key + "'");
    return nullptr;
  }
  return v;
}

}  // namespace

bool read_record(const std::string& line, RecordView* out,
                 std::string* error) {
  if (line.empty()) return fail(error, "empty line where a record was expected");
  JsonValue root;
  std::string perr;
  if (!parse_json(line, &root, &perr))
    return fail(error, "malformed record line (" + perr + ")");
  if (!root.is_object())
    return fail(error, "record line is not a JSON object");

  const JsonValue* v = require(root, "v", error);
  if (v == nullptr) return false;
  if (!v->is_number() || v->raw_number() != "2")
    return fail(error, "unsupported schema version " +
                           (v->is_number() ? v->raw_number() : "(non-number)") +
                           " (this reader speaks v2; v1 predates the "
                           "metrics context envelope)");

  const JsonValue* bench = require(root, "bench", error);
  const JsonValue* index = require(root, "spec_index", error);
  const JsonValue* key = require(root, "key", error);
  const JsonValue* seed = require(root, "seed", error);
  const JsonValue* metrics = require(root, "metrics", error);
  if (!bench || !index || !key || !seed || !metrics) return false;

  if (!bench->is_string() || bench->string().empty())
    return fail(error, "field 'bench' must be a non-empty string");
  if (!index->is_number())
    return fail(error, "field 'spec_index' must be a number");
  std::uint64_t idx = 0;
  {
    const std::string& raw = index->raw_number();
    const auto [p, ec] =
        std::from_chars(raw.data(), raw.data() + raw.size(), idx);
    if (ec != std::errc{} || p != raw.data() + raw.size())
      return fail(error, "field 'spec_index' must be an unsigned integer");
  }
  if (!key->is_string())
    return fail(error, "field 'key' must be a string");
  if (!seed->is_string() || seed->string().rfind("0x", 0) != 0)
    return fail(error, "field 'seed' must be a \"0x...\" hex string");
  std::uint64_t seed_v = 0;
  {
    const std::string& s = seed->string();
    const auto [p, ec] =
        std::from_chars(s.data() + 2, s.data() + s.size(), seed_v, 16);
    if (ec != std::errc{} || p != s.data() + s.size() || s.size() == 2)
      return fail(error, "field 'seed' must be a \"0x...\" hex string");
  }
  if (!metrics->is_object())
    return fail(error, "field 'metrics' must be an object");

  // Context envelope: every sweep record carries the spec point's content
  // alongside the harness metrics, so the offline consumer never has to
  // reverse-engineer the key string.
  const JsonValue* app = metrics->find("app");
  const JsonValue* nodes = metrics->find("nodes");
  const JsonValue* variant = metrics->find("variant");
  const JsonValue* param = metrics->find("param");
  const JsonValue* scale = metrics->find("scale");
  const JsonValue* protocol = metrics->find("protocol");
  const JsonValue* batch = metrics->find("batch");
  const JsonValue* m = metrics->find("m");
  if (!app || !app->is_string())
    return fail(error, "metrics context is missing string field 'app'");
  if (!nodes || !nodes->is_number())
    return fail(error, "metrics context is missing numeric field 'nodes'");
  if (!variant || !variant->is_string())
    return fail(error, "metrics context is missing string field 'variant'");
  if (!param || !param->is_number())
    return fail(error, "metrics context is missing numeric field 'param'");
  if (!scale || !scale->is_string())
    return fail(error, "metrics context is missing string field 'scale'");
  // Optional: present only when the sweep varies the coherence protocol.
  if (protocol && (!protocol->is_string() || protocol->string().empty()))
    return fail(error,
                "metrics context field 'protocol' must be a non-empty string");
  // Optional, and read by nothing: stores written while the simulator
  // had a batch-size axis may carry it. Still validated so old stores
  // keep parsing exactly as before and malformed ones keep failing.
  if (batch && (!batch->is_number() || batch->unsigned_int() == 0))
    return fail(error,
                "metrics context field 'batch' must be a positive integer");
  // Optional: the machine's deterministic metrics snapshot (--obs-stats).
  const JsonValue* obs = metrics->find("obs");
  if (obs && !obs->is_object())
    return fail(error, "metrics context field 'obs' must be an object");
  // Optional: the phase-attributed interval timeline (--obs-intervals).
  const JsonValue* obs_intervals = metrics->find("obs_intervals");
  if (obs_intervals && !obs_intervals->is_object())
    return fail(error,
                "metrics context field 'obs_intervals' must be an object");
  if (!m || !m->is_object())
    return fail(error, "metrics context is missing object field 'm'");

  out->bench = bench->string();
  out->spec_index = static_cast<std::size_t>(idx);
  out->key = key->string();
  out->seed = seed_v;
  out->app = app->string();
  out->nodes = static_cast<unsigned>(nodes->unsigned_int());
  out->variant = variant->string();
  out->param = param->number();
  out->scale = scale->string();
  out->protocol = protocol ? protocol->string() : "mesi";
  // Move the metrics subtree out of the parsed root, which dies with this
  // call (cheap: the vectors inside move).
  out->metrics = std::move(*const_cast<JsonValue*>(metrics));
  return true;
}

bool RecordReader::next(RecordView* out) {
  if (!error_.empty()) return false;
  std::string line;
  if (!source_->next(line)) return false;  // end of stream
  ++line_no_;

  std::string why;
  if (!read_record(line, out, &why)) {
    if (source_->truncated()) {
      // The file's writer died mid-record: a *recoverable* defect (the
      // index is simply missing; `dsm_report resume` / a resumed fleet
      // re-runs it), reported distinctly from real corruption.
      error_ = "line " + std::to_string(line_no_) +
               ": truncated final record (the writing worker crashed "
               "mid-write; recoverable — resume re-runs its index)";
    } else {
      error_ = "line " + std::to_string(line_no_) + ": " + why;
    }
    return false;
  }

  if (records_ == 0) {
    bench_ = out->bench;
  } else if (out->bench != bench_) {
    error_ = "line " + std::to_string(line_no_) +
             ": bench name changed mid-stream: '" + bench_ + "' vs '" +
             out->bench + "' (records from different harnesses?)";
    return false;
  }

  const long long idx = static_cast<long long>(out->spec_index);
  if (idx == last_index_) {
    error_ = "line " + std::to_string(line_no_) + ": duplicate spec index " +
             std::to_string(out->spec_index);
    return false;
  }
  if (idx < last_index_) {
    error_ = "line " + std::to_string(line_no_) + ": spec index " +
             std::to_string(out->spec_index) + " after " +
             std::to_string(last_index_) + ": records out of order";
    return false;
  }
  if (kind_ == StreamKind::kMergedStream && idx != last_index_ + 1) {
    error_ = "line " + std::to_string(line_no_) +
             ": gap in spec indices: expected " +
             std::to_string(last_index_ + 1) + ", got " +
             std::to_string(out->spec_index) +
             " (merged stream must be contiguous — missing shard file?)";
    return false;
  }
  last_index_ = idx;
  ++records_;
  return true;
}

}  // namespace dsm::report
