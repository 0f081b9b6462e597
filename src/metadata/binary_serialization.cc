#include "metadata/binary_serialization.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace mlprov::metadata {

namespace binwire {

void AppendVarint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

void AppendSvarint(std::string& out, int64_t value) {
  AppendVarint(out, ZigZagEncode(value));
}

void AppendDouble(std::string& out, double value) {
  const auto bits = std::bit_cast<uint64_t>(value);
  // One append call, not eight push_backs: the WAL encodes a frame per
  // ingested record.
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((bits >> (8 * i)) & 0xFFu);
  }
  out.append(buf, sizeof(buf));
}

void AppendString(std::string& out, std::string_view value) {
  AppendVarint(out, value.size());
  out.append(value.data(), value.size());
}

}  // namespace binwire

namespace {

using binwire::AppendDouble;
using binwire::AppendString;
using binwire::AppendSvarint;
using binwire::AppendVarint;
using binwire::Reader;
using common::Status;
using common::StatusOr;

// Two's-complement add/sub through uint64_t: defined for any operands,
// so hostile deltas can never trip signed-overflow UB, and a serialize/
// deserialize pair round-trips even times at the int64 extremes.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

bool Bit(const uint8_t* bitmap, size_t index) {
  return (bitmap[index >> 3] >> (index & 7)) & 1;
}

// ---------------------------------------------------------------------
// Serializer.
// ---------------------------------------------------------------------

/// First-use-ordered string intern table. Views reference the store's
/// own strings, which outlive serialization.
struct Interner {
  std::vector<std::string_view> table;
  std::unordered_map<std::string_view, uint64_t> index;

  uint64_t Id(std::string_view s) {
    const auto [it, inserted] = index.try_emplace(s, table.size());
    if (inserted) table.push_back(s);
    return it->second;
  }
};

void AppendColumn(std::string& section, std::string& column) {
  AppendString(section, column);
  column.clear();
}

template <typename Node>
void BuildPropertySection(const std::vector<Node>& nodes, Interner& intern,
                          std::string* payload) {
  std::string rows;
  uint64_t count = 0;
  int64_t prev_id = 0;
  for (const Node& node : nodes) {
    for (const auto& [key, value] : node.properties) {
      AppendVarint(rows, static_cast<uint64_t>(node.id - prev_id));
      prev_id = node.id;
      AppendVarint(rows, intern.Id(key));
      if (const int64_t* i = std::get_if<int64_t>(&value)) {
        rows.push_back('i');
        AppendSvarint(rows, *i);
      } else if (const double* d = std::get_if<double>(&value)) {
        rows.push_back('d');
        AppendDouble(rows, *d);
      } else {
        rows.push_back('s');
        AppendVarint(rows, intern.Id(std::get<std::string>(value)));
      }
      ++count;
    }
  }
  AppendVarint(*payload, count);
  AppendColumn(*payload, rows);
}

void BuildContextSection(const MetadataStore& store, Interner& intern,
                         std::string* payload) {
  std::string rows;
  for (const Context& c : store.contexts()) {
    AppendVarint(rows, intern.Id(c.name));
    AppendVarint(rows, c.executions.size());
    int64_t prev = 0;
    for (const ExecutionId e : c.executions) {
      AppendSvarint(rows, WrapSub(e, prev));
      prev = e;
    }
    AppendVarint(rows, c.artifacts.size());
    prev = 0;
    for (const ArtifactId a : c.artifacts) {
      AppendSvarint(rows, WrapSub(a, prev));
      prev = a;
    }
  }
  AppendVarint(*payload, store.num_contexts());
  AppendColumn(*payload, rows);
}

void BuildInternSection(const Interner& intern, std::string* payload) {
  AppendVarint(*payload, intern.table.size());
  for (const std::string_view s : intern.table) AppendString(*payload, s);
}

void BuildArtifactSection(const MetadataStore& store, std::string* payload) {
  const auto& artifacts = store.artifacts();
  AppendVarint(*payload, artifacts.size());
  std::string column;
  for (const Artifact& a : artifacts) {
    column.push_back(static_cast<char>(a.type));
  }
  AppendColumn(*payload, column);
  int64_t prev = 0;
  for (const Artifact& a : artifacts) {
    AppendSvarint(column, WrapSub(a.create_time, prev));
    prev = a.create_time;
  }
  AppendColumn(*payload, column);
}

void BuildExecutionSection(const MetadataStore& store,
                           std::string* payload) {
  const auto& executions = store.executions();
  const size_t n = executions.size();
  AppendVarint(*payload, n);
  std::string column;
  for (const Execution& e : executions) {
    column.push_back(static_cast<char>(e.type));
  }
  AppendColumn(*payload, column);
  int64_t prev = 0;
  for (const Execution& e : executions) {
    AppendSvarint(column, WrapSub(e.start_time, prev));
    prev = e.start_time;
  }
  AppendColumn(*payload, column);
  for (const Execution& e : executions) {
    AppendSvarint(column, WrapSub(e.end_time, e.start_time));
  }
  AppendColumn(*payload, column);
  column.assign((n + 7) / 8, '\0');
  for (size_t i = 0; i < n; ++i) {
    if (executions[i].succeeded) {
      column[i >> 3] = static_cast<char>(
          static_cast<uint8_t>(column[i >> 3]) | (1u << (i & 7)));
    }
  }
  AppendColumn(*payload, column);
  for (const Execution& e : executions) {
    AppendDouble(column, e.compute_cost);
  }
  AppendColumn(*payload, column);
}

void BuildEventSection(const MetadataStore& store, std::string* payload) {
  const auto& events = store.events();
  const size_t n = events.size();
  AppendVarint(*payload, n);
  std::string column;
  int64_t prev = 0;
  for (const Event& ev : events) {
    AppendSvarint(column, WrapSub(ev.execution, prev));
    prev = ev.execution;
  }
  AppendColumn(*payload, column);
  prev = 0;
  for (const Event& ev : events) {
    AppendSvarint(column, WrapSub(ev.artifact, prev));
    prev = ev.artifact;
  }
  AppendColumn(*payload, column);
  column.assign((n + 7) / 8, '\0');
  for (size_t i = 0; i < n; ++i) {
    if (events[i].kind == EventKind::kOutput) {
      column[i >> 3] = static_cast<char>(
          static_cast<uint8_t>(column[i >> 3]) | (1u << (i & 7)));
    }
  }
  AppendColumn(*payload, column);
  prev = 0;
  for (const Event& ev : events) {
    AppendSvarint(column, WrapSub(ev.time, prev));
    prev = ev.time;
  }
  AppendColumn(*payload, column);
}

void WriteFramed(std::ostream& out, char tag, const std::string& payload) {
  std::string header(1, tag);
  AppendVarint(header, payload.size());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

// ---------------------------------------------------------------------
// Decoder (strict + lenient), shared by the in-memory deserializers and
// the section-streaming file loader.
// ---------------------------------------------------------------------

constexpr char kSectionOrder[] = {'S', 'A', 'E', 'V', 'p', 'q', 'C'};
constexpr size_t kNumSections = sizeof(kSectionOrder);

class StoreDecoder {
 public:
  StoreDecoder(bool lenient, LenientStats* stats)
      : lenient_(lenient), stats_(stats) {}

  /// Consumes one framed section payload. The payload view only needs
  /// to live for the duration of the call (intern strings are copied
  /// into the decoder). Returns a fatal Status in strict mode; in
  /// lenient mode a damaged section is tallied and decoding continues.
  Status OnSection(char tag, std::string_view payload) {
    if (static_cast<size_t>(next_section_) < kNumSections &&
        tag == kSectionOrder[next_section_]) {
      ++next_section_;
    } else if (!lenient_) {
      return Status::InvalidArgument(
          std::string("unexpected section '") + tag + "'");
    } else if (!Known(tag)) {
      Tally(&LenientStats::malformed_lines);
      return Status::Ok();
    }
    const Status status = DecodeSection(tag, payload);
    if (!status.ok()) {
      if (!lenient_) return status;
      Tally(&LenientStats::malformed_lines);
    }
    return Status::Ok();
  }

  Status Finish() {
    if (!lenient_ && static_cast<size_t>(next_section_) < kNumSections) {
      return Status::InvalidArgument(
          std::string("missing section '") +
          kSectionOrder[next_section_] + "'");
    }
    return Status::Ok();
  }

  MetadataStore TakeStore() { return std::move(store_); }

 private:
  static bool Known(char tag) {
    for (const char known : kSectionOrder) {
      if (tag == known) return true;
    }
    return false;
  }

  void Tally(size_t LenientStats::* field) {
    if (stats_ != nullptr) ++(stats_->*field);
  }

  Status DecodeSection(char tag, std::string_view payload) {
    Reader r(payload);
    switch (tag) {
      case 'S':
        return DecodeInterns(r);
      case 'A':
        return DecodeArtifacts(r);
      case 'E':
        return DecodeExecutions(r);
      case 'V':
        return DecodeEvents(r);
      case 'p':
        return DecodeProperties(r, /*artifact_owner=*/true);
      case 'q':
        return DecodeProperties(r, /*artifact_owner=*/false);
      case 'C':
        return DecodeContexts(r);
      default:
        return Status::Internal("unreachable section tag");
    }
  }

  /// Strict mode additionally rejects trailing bytes a writer would
  /// never produce; the lenient reader keeps whatever decoded cleanly.
  Status CheckFullyConsumed(const Reader& r, const char* what) {
    if (!lenient_ && !r.empty()) {
      return Status::InvalidArgument(std::string(what) +
                                     ": trailing bytes in section");
    }
    return Status::Ok();
  }

  Status DecodeInterns(Reader& r) {
    uint64_t count = 0;
    if (!r.U64(&count) || count > r.remaining()) {
      return Status::InvalidArgument("intern table header corrupt");
    }
    interns_.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      std::string_view s;
      if (!r.Column(&s)) {
        return Status::InvalidArgument("intern table truncated");
      }
      interns_.emplace_back(s);
    }
    return CheckFullyConsumed(r, "intern table");
  }

  Status DecodeArtifacts(Reader& r) {
    uint64_t n = 0;
    std::string_view types, times_col;
    if (!r.U64(&n) || !r.Column(&types) || !r.Column(&times_col) ||
        types.size() != n) {
      return Status::InvalidArgument("artifact section header corrupt");
    }
    MLPROV_RETURN_IF_ERROR(CheckFullyConsumed(r, "artifact section"));
    Reader times(times_col);
    store_.Reserve(store_.num_artifacts() + static_cast<size_t>(n),
                   store_.num_executions(), store_.num_events(),
                   store_.num_contexts());
    int64_t prev = 0;
    for (uint64_t i = 0; i < n; ++i) {
      int64_t delta = 0;
      if (!times.S64(&delta)) {
        return Status::InvalidArgument("artifact times truncated");
      }
      prev = WrapAdd(prev, delta);
      int type = static_cast<uint8_t>(types[static_cast<size_t>(i)]);
      if (type >= kNumArtifactTypes) {
        if (!lenient_) {
          return Status::InvalidArgument("artifact type out of range");
        }
        Tally(&LenientStats::invalid_enums);
        type = static_cast<int>(ArtifactType::kCustom);
      }
      Artifact a;
      a.type = static_cast<ArtifactType>(type);
      a.create_time = prev;
      store_.PutArtifact(std::move(a));
    }
    return CheckFullyConsumed(times, "artifact times");
  }

  Status DecodeExecutions(Reader& r) {
    uint64_t n = 0;
    std::string_view types, starts_col, durs_col, succ, costs;
    if (!r.U64(&n) || !r.Column(&types) || !r.Column(&starts_col) ||
        !r.Column(&durs_col) || !r.Column(&succ) || !r.Column(&costs) ||
        types.size() != n || succ.size() != (n + 7) / 8 ||
        costs.size() != 8 * n) {
      return Status::InvalidArgument("execution section header corrupt");
    }
    MLPROV_RETURN_IF_ERROR(CheckFullyConsumed(r, "execution section"));
    Reader starts(starts_col), durs(durs_col), cost_reader(costs);
    const uint8_t* succ_bits =
        reinterpret_cast<const uint8_t*>(succ.data());
    store_.Reserve(store_.num_artifacts(),
                   store_.num_executions() + static_cast<size_t>(n),
                   store_.num_events(), store_.num_contexts());
    int64_t prev_start = 0;
    for (uint64_t i = 0; i < n; ++i) {
      int64_t start_delta = 0, dur = 0;
      double cost = 0.0;
      if (!starts.S64(&start_delta) || !durs.S64(&dur) ||
          !cost_reader.Double(&cost)) {
        return Status::InvalidArgument("execution columns truncated");
      }
      prev_start = WrapAdd(prev_start, start_delta);
      int type = static_cast<uint8_t>(types[static_cast<size_t>(i)]);
      if (type >= kNumExecutionTypes) {
        if (!lenient_) {
          return Status::InvalidArgument("execution type out of range");
        }
        Tally(&LenientStats::invalid_enums);
        type = static_cast<int>(ExecutionType::kCustom);
      }
      Execution e;
      e.type = static_cast<ExecutionType>(type);
      e.start_time = prev_start;
      e.end_time = WrapAdd(prev_start, dur);
      e.succeeded = Bit(succ_bits, static_cast<size_t>(i));
      e.compute_cost = cost;
      store_.PutExecution(std::move(e));
    }
    Status s = CheckFullyConsumed(starts, "execution starts");
    if (s.ok()) s = CheckFullyConsumed(durs, "execution durations");
    return s;
  }

  Status DecodeEvents(Reader& r) {
    uint64_t n = 0;
    std::string_view execs_col, arts_col, kinds, times_col;
    // Each event's execution delta is at least one svarint byte, so a
    // count beyond the column length is a lie; checking it first also
    // keeps (n + 7) from wrapping for n near 2^64 (which would let an
    // empty kind bitmap pass and a hostile count reach Reserve).
    if (!r.U64(&n) || !r.Column(&execs_col) || !r.Column(&arts_col) ||
        !r.Column(&kinds) || !r.Column(&times_col) ||
        n > execs_col.size() || kinds.size() != (n + 7) / 8) {
      return Status::InvalidArgument("event section header corrupt");
    }
    MLPROV_RETURN_IF_ERROR(CheckFullyConsumed(r, "event section"));
    Reader execs(execs_col), arts(arts_col), times(times_col);
    const uint8_t* kind_bits =
        reinterpret_cast<const uint8_t*>(kinds.data());
    store_.Reserve(store_.num_artifacts(), store_.num_executions(),
                   store_.num_events() + static_cast<size_t>(n),
                   store_.num_contexts());
    int64_t prev_exec = 0, prev_art = 0, prev_time = 0;
    for (uint64_t i = 0; i < n; ++i) {
      int64_t de = 0, da = 0, dt = 0;
      if (!execs.S64(&de) || !arts.S64(&da) || !times.S64(&dt)) {
        return Status::InvalidArgument("event columns truncated");
      }
      prev_exec = WrapAdd(prev_exec, de);
      prev_art = WrapAdd(prev_art, da);
      prev_time = WrapAdd(prev_time, dt);
      Event ev;
      ev.execution = prev_exec;
      ev.artifact = prev_art;
      ev.kind = Bit(kind_bits, static_cast<size_t>(i))
                    ? EventKind::kOutput
                    : EventKind::kInput;
      ev.time = prev_time;
      if (lenient_) {
        const bool dangling =
            prev_exec < 1 ||
            static_cast<size_t>(prev_exec) > store_.num_executions() ||
            prev_art < 1 ||
            static_cast<size_t>(prev_art) > store_.num_artifacts();
        if (dangling) Tally(&LenientStats::dangling_events);
        store_.PutEventUnchecked(ev);
      } else {
        const Status put = store_.PutEvent(ev);
        if (!put.ok()) {
          return Status::InvalidArgument("event before its endpoints: " +
                                         put.message());
        }
      }
    }
    return CheckFullyConsumed(execs, "event executions");
  }

  Status DecodeProperties(Reader& r, bool artifact_owner) {
    uint64_t n = 0;
    std::string_view rows_col;
    if (!r.U64(&n) || !r.Column(&rows_col)) {
      return Status::InvalidArgument("property section header corrupt");
    }
    MLPROV_RETURN_IF_ERROR(CheckFullyConsumed(r, "property section"));
    Reader rows(rows_col);
    int64_t prev_id = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t id_delta = 0, key_idx = 0;
      uint8_t value_tag = 0;
      if (!rows.U64(&id_delta) || !rows.U64(&key_idx) ||
          !rows.Byte(&value_tag)) {
        return Status::InvalidArgument("property rows truncated");
      }
      prev_id = WrapAdd(prev_id, static_cast<int64_t>(id_delta));
      PropertyValue value;
      switch (value_tag) {
        case 'i': {
          int64_t v = 0;
          if (!rows.S64(&v)) {
            return Status::InvalidArgument("property value truncated");
          }
          value = v;
          break;
        }
        case 'd': {
          double v = 0.0;
          if (!rows.Double(&v)) {
            return Status::InvalidArgument("property value truncated");
          }
          value = v;
          break;
        }
        case 's': {
          uint64_t idx = 0;
          if (!rows.U64(&idx)) {
            return Status::InvalidArgument("property value truncated");
          }
          if (idx >= interns_.size()) {
            // The row is fully consumed, so lenient mode can drop just
            // this row and keep decoding.
            if (!lenient_) {
              return Status::InvalidArgument(
                  "property value intern index out of range");
            }
            Tally(&LenientStats::malformed_lines);
            continue;
          }
          value = interns_[static_cast<size_t>(idx)];
          break;
        }
        default:
          // Unknown tag: the payload width is unknown, so the rest of
          // the section is unrecoverable.
          return Status::InvalidArgument("unknown property value tag");
      }
      if (key_idx >= interns_.size()) {
        if (!lenient_) {
          return Status::InvalidArgument(
              "property key intern index out of range");
        }
        Tally(&LenientStats::malformed_lines);
        continue;
      }
      Artifact* a = artifact_owner ? store_.MutableArtifact(prev_id)
                                   : nullptr;
      Execution* e = artifact_owner ? nullptr
                                    : store_.MutableExecution(prev_id);
      if (a == nullptr && e == nullptr) {
        if (!lenient_) {
          return Status::InvalidArgument("property owner out of range");
        }
        Tally(&LenientStats::orphan_properties);
        continue;
      }
      auto& properties = artifact_owner ? a->properties : e->properties;
      properties[interns_[static_cast<size_t>(key_idx)]] =
          std::move(value);
    }
    return CheckFullyConsumed(rows, "property rows");
  }

  Status DecodeContexts(Reader& r) {
    uint64_t n = 0;
    std::string_view rows_col;
    // Each row is at least three bytes (name index + two counts).
    if (!r.U64(&n) || !r.Column(&rows_col) || n > rows_col.size()) {
      return Status::InvalidArgument("context section header corrupt");
    }
    MLPROV_RETURN_IF_ERROR(CheckFullyConsumed(r, "context section"));
    Reader rows(rows_col);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t name_idx = 0, ne = 0, na = 0;
      if (!rows.U64(&name_idx)) {
        return Status::InvalidArgument("context rows truncated");
      }
      Context c;
      if (name_idx < interns_.size()) {
        c.name = interns_[static_cast<size_t>(name_idx)];
      } else if (!lenient_) {
        return Status::InvalidArgument(
            "context name intern index out of range");
      } else {
        Tally(&LenientStats::malformed_lines);
      }
      if (!rows.U64(&ne) || ne > rows.remaining()) {
        return Status::InvalidArgument("context membership truncated");
      }
      int64_t prev = 0;
      c.executions.reserve(static_cast<size_t>(ne));
      for (uint64_t j = 0; j < ne; ++j) {
        int64_t delta = 0;
        if (!rows.S64(&delta)) {
          return Status::InvalidArgument("context membership truncated");
        }
        prev = WrapAdd(prev, delta);
        if (prev < 1 ||
            static_cast<size_t>(prev) > store_.num_executions()) {
          if (!lenient_) {
            return Status::InvalidArgument(
                "context references unknown execution");
          }
          Tally(&LenientStats::malformed_lines);
          continue;
        }
        c.executions.push_back(prev);
      }
      if (!rows.U64(&na) || na > rows.remaining()) {
        return Status::InvalidArgument("context membership truncated");
      }
      prev = 0;
      c.artifacts.reserve(static_cast<size_t>(na));
      for (uint64_t j = 0; j < na; ++j) {
        int64_t delta = 0;
        if (!rows.S64(&delta)) {
          return Status::InvalidArgument("context membership truncated");
        }
        prev = WrapAdd(prev, delta);
        if (prev < 1 ||
            static_cast<size_t>(prev) > store_.num_artifacts()) {
          if (!lenient_) {
            return Status::InvalidArgument(
                "context references unknown artifact");
          }
          Tally(&LenientStats::malformed_lines);
          continue;
        }
        c.artifacts.push_back(prev);
      }
      store_.PutContext(std::move(c));
    }
    return CheckFullyConsumed(rows, "context rows");
  }

  const bool lenient_;
  LenientStats* const stats_;
  MetadataStore store_;
  /// Owned copies: the section payload buffer may be reused by a
  /// streaming loader before dependent sections arrive.
  std::vector<std::string> interns_;
  int next_section_ = 0;
};

Status CheckMagic(Reader& r) {
  std::string_view magic;
  uint8_t version = 0;
  if (!r.View(sizeof(kBinaryStoreMagic), &magic) ||
      std::memcmp(magic.data(), kBinaryStoreMagic,
                  sizeof(kBinaryStoreMagic)) != 0) {
    return Status::InvalidArgument("bad binary store magic");
  }
  if (!r.Byte(&version) || version != kBinaryStoreVersion) {
    return Status::InvalidArgument("unsupported binary store version");
  }
  return Status::Ok();
}

StatusOr<MetadataStore> ParseBinary(std::string_view data, bool lenient,
                                    LenientStats* stats) {
  Reader r(data);
  MLPROV_RETURN_IF_ERROR(CheckMagic(r));
  StoreDecoder decoder(lenient, stats);
  while (!r.empty()) {
    uint8_t tag = 0;
    std::string_view payload;
    if (!r.Byte(&tag) || !r.Column(&payload)) {
      if (lenient) {
        // A broken frame loses the rest of the file; keep the salvage.
        if (stats != nullptr) ++stats->malformed_lines;
        break;
      }
      return Status::InvalidArgument("section framing corrupt");
    }
    MLPROV_RETURN_IF_ERROR(
        decoder.OnSection(static_cast<char>(tag), payload));
  }
  MLPROV_RETURN_IF_ERROR(decoder.Finish());
  return decoder.TakeStore();
}

}  // namespace

bool IsBinaryStore(std::string_view data) {
  return data.size() >= sizeof(kBinaryStoreMagic) &&
         std::memcmp(data.data(), kBinaryStoreMagic,
                     sizeof(kBinaryStoreMagic)) == 0;
}

std::string SerializeStoreBinary(const MetadataStore& store) {
  std::ostringstream out;
  (void)SaveStoreBinary(store, out);
  return std::move(out).str();
}

common::Status SaveStoreBinary(const MetadataStore& store,
                               std::ostream& out) {
  Interner intern;
  // The property and context sections fix the intern table, so they are
  // built (and buffered) first; the bulky node/event sections are then
  // built and written one at a time to bound peak memory.
  std::string p, q, c, s;
  BuildPropertySection(store.artifacts(), intern, &p);
  BuildPropertySection(store.executions(), intern, &q);
  BuildContextSection(store, intern, &c);
  BuildInternSection(intern, &s);
  out.write(kBinaryStoreMagic, sizeof(kBinaryStoreMagic));
  out.put(static_cast<char>(kBinaryStoreVersion));
  WriteFramed(out, 'S', s);
  s.clear();
  s.shrink_to_fit();
  {
    std::string payload;
    BuildArtifactSection(store, &payload);
    WriteFramed(out, 'A', payload);
  }
  {
    std::string payload;
    BuildExecutionSection(store, &payload);
    WriteFramed(out, 'E', payload);
  }
  {
    std::string payload;
    BuildEventSection(store, &payload);
    WriteFramed(out, 'V', payload);
  }
  WriteFramed(out, 'p', p);
  WriteFramed(out, 'q', q);
  WriteFramed(out, 'C', c);
  if (!out) return Status::Internal("binary store write failed");
  return Status::Ok();
}

common::StatusOr<MetadataStore> DeserializeStoreBinary(
    std::string_view data) {
  return ParseBinary(data, /*lenient=*/false, nullptr);
}

common::StatusOr<MetadataStore> DeserializeStoreBinaryLenient(
    std::string_view data, LenientStats* stats) {
  return ParseBinary(data, /*lenient=*/true, stats);
}

common::StatusOr<MetadataStore> LoadStoreBinary(std::istream& in) {
  char header[sizeof(kBinaryStoreMagic) + 1] = {};
  in.read(header, sizeof(header));
  if (in.gcount() != sizeof(header) ||
      std::memcmp(header, kBinaryStoreMagic,
                  sizeof(kBinaryStoreMagic)) != 0) {
    return Status::InvalidArgument("bad binary store magic");
  }
  if (static_cast<uint8_t>(header[sizeof(kBinaryStoreMagic)]) !=
      kBinaryStoreVersion) {
    return Status::InvalidArgument("unsupported binary store version");
  }
  // Sections stream through one reusable buffer: peak memory is the
  // store plus the largest single section, never the whole file.
  StoreDecoder decoder(/*lenient=*/false, nullptr);
  std::string payload;
  while (true) {
    const int tag = in.get();
    if (tag == std::char_traits<char>::eof()) break;
    uint64_t len = 0;
    for (int shift = 0;; shift += 7) {
      const int raw = in.get();
      if (raw == std::char_traits<char>::eof() || shift >= 64 ||
          (shift == 63 && (raw & ~1) != 0)) {
        return Status::InvalidArgument("section framing corrupt");
      }
      len |= static_cast<uint64_t>(raw & 0x7F) << shift;
      if ((raw & 0x80) == 0) break;
    }
    // Bound hostile lengths by what the file can actually hold before
    // allocating. Non-seekable streams (pipes, filter streambufs)
    // report tellg() < 0; for those, grow the buffer in bounded chunks
    // so a lying length hits the short-read check instead of forcing
    // one huge up-front allocation.
    const auto pos = in.tellg();
    if (pos >= 0) {
      in.seekg(0, std::ios::end);
      const auto file_end = in.tellg();
      in.seekg(pos);
      if (file_end < pos || len > static_cast<uint64_t>(file_end - pos)) {
        return Status::InvalidArgument(
            "section length exceeds file size");
      }
      payload.resize(static_cast<size_t>(len));
      in.read(payload.data(), static_cast<std::streamsize>(len));
      if (static_cast<uint64_t>(in.gcount()) != len) {
        return Status::InvalidArgument("section truncated");
      }
    } else {
      constexpr uint64_t kChunk = uint64_t{1} << 20;
      payload.clear();
      for (uint64_t got = 0; got < len;) {
        const uint64_t take = std::min(len - got, kChunk);
        payload.resize(static_cast<size_t>(got + take));
        in.read(payload.data() + got,
                static_cast<std::streamsize>(take));
        if (static_cast<uint64_t>(in.gcount()) != take) {
          return Status::InvalidArgument("section truncated");
        }
        got += take;
      }
    }
    MLPROV_RETURN_IF_ERROR(
        decoder.OnSection(static_cast<char>(tag), payload));
  }
  MLPROV_RETURN_IF_ERROR(decoder.Finish());
  return decoder.TakeStore();
}

// ---------------------------------------------------------------------
// Zero-copy cursor.
// ---------------------------------------------------------------------

bool BinaryStoreCursor::Fail(const std::string& what) {
  if (status_.ok()) status_ = Status::InvalidArgument(what);
  return false;
}

common::StatusOr<BinaryStoreCursor> BinaryStoreCursor::Open(
    std::string_view data) {
  Reader r(data);
  MLPROV_RETURN_IF_ERROR(CheckMagic(r));
  BinaryStoreCursor cursor;
  for (const char expected : kSectionOrder) {
    uint8_t tag = 0;
    std::string_view payload;
    if (!r.Byte(&tag) || !r.Column(&payload)) {
      return Status::InvalidArgument("section framing corrupt");
    }
    if (static_cast<char>(tag) != expected) {
      return Status::InvalidArgument(
          std::string("unexpected section '") + static_cast<char>(tag) +
          "' (expected '" + expected + "')");
    }
    Reader section(payload);
    uint64_t n = 0;
    switch (expected) {
      case 'S': {
        if (!section.U64(&n) || n > section.remaining()) {
          return Status::InvalidArgument("intern table header corrupt");
        }
        cursor.interns_.reserve(static_cast<size_t>(n));
        for (uint64_t i = 0; i < n; ++i) {
          std::string_view s;
          if (!section.Column(&s)) {
            return Status::InvalidArgument("intern table truncated");
          }
          cursor.interns_.emplace_back(s);
        }
        break;
      }
      case 'A': {
        std::string_view types, times;
        if (!section.U64(&n) || !section.Column(&types) ||
            !section.Column(&times) || types.size() != n) {
          return Status::InvalidArgument("artifact section corrupt");
        }
        cursor.n_artifacts_ = static_cast<size_t>(n);
        cursor.a_types_ = Reader(types);
        cursor.a_times_ = Reader(times);
        break;
      }
      case 'E': {
        std::string_view types, starts, durs, succ, costs;
        if (!section.U64(&n) || !section.Column(&types) ||
            !section.Column(&starts) || !section.Column(&durs) ||
            !section.Column(&succ) || !section.Column(&costs) ||
            types.size() != n || succ.size() != (n + 7) / 8 ||
            costs.size() != 8 * n) {
          return Status::InvalidArgument("execution section corrupt");
        }
        cursor.n_executions_ = static_cast<size_t>(n);
        cursor.e_types_ = Reader(types);
        cursor.e_starts_ = Reader(starts);
        cursor.e_durs_ = Reader(durs);
        cursor.e_costs_ = Reader(costs);
        cursor.e_succ_ = reinterpret_cast<const uint8_t*>(succ.data());
        break;
      }
      case 'V': {
        std::string_view execs, arts, kinds, times;
        // n > execs.size() first: each row is at least one delta byte,
        // and bounding n keeps (n + 7) from wrapping for hostile counts
        // near 2^64.
        if (!section.U64(&n) || !section.Column(&execs) ||
            !section.Column(&arts) || !section.Column(&kinds) ||
            !section.Column(&times) || n > execs.size() ||
            kinds.size() != (n + 7) / 8) {
          return Status::InvalidArgument("event section corrupt");
        }
        cursor.n_events_ = static_cast<size_t>(n);
        cursor.v_execs_ = Reader(execs);
        cursor.v_arts_ = Reader(arts);
        cursor.v_times_ = Reader(times);
        cursor.v_kinds_ = reinterpret_cast<const uint8_t*>(kinds.data());
        break;
      }
      case 'p':
      case 'q': {
        std::string_view rows;
        if (!section.U64(&n) || !section.Column(&rows)) {
          return Status::InvalidArgument("property section corrupt");
        }
        if (expected == 'p') {
          cursor.n_aprops_ = static_cast<size_t>(n);
          cursor.aprop_rows_ = Reader(rows);
        } else {
          cursor.n_eprops_ = static_cast<size_t>(n);
          cursor.eprop_rows_ = Reader(rows);
        }
        break;
      }
      case 'C': {
        std::string_view rows_col;
        // Each context row is at least three bytes (name index plus two
        // membership counts), so a count beyond the row column length
        // is hostile; reject it before the reserve below can allocate.
        if (!section.U64(&n) || !section.Column(&rows_col) ||
            n > rows_col.size()) {
          return Status::InvalidArgument("context section corrupt");
        }
        Reader rows(rows_col);
        cursor.n_contexts_ = static_cast<size_t>(n);
        cursor.context_names_.reserve(static_cast<size_t>(n));
        for (uint64_t i = 0; i < n; ++i) {
          uint64_t name_idx = 0, ne = 0, na = 0;
          if (!rows.U64(&name_idx) ||
              name_idx >= cursor.interns_.size()) {
            return Status::InvalidArgument("context name corrupt");
          }
          cursor.context_names_.push_back(
              cursor.interns_[static_cast<size_t>(name_idx)]);
          // Membership is re-derived by the consumer as nodes stream in
          // (the feed contract); skip the encoded lists.
          if (!rows.U64(&ne) || ne > rows.remaining()) {
            return Status::InvalidArgument("context membership corrupt");
          }
          for (uint64_t j = 0; j < ne; ++j) {
            int64_t skip = 0;
            if (!rows.S64(&skip)) {
              return Status::InvalidArgument(
                  "context membership corrupt");
            }
          }
          if (!rows.U64(&na) || na > rows.remaining()) {
            return Status::InvalidArgument("context membership corrupt");
          }
          for (uint64_t j = 0; j < na; ++j) {
            int64_t skip = 0;
            if (!rows.S64(&skip)) {
              return Status::InvalidArgument(
                  "context membership corrupt");
            }
          }
        }
        break;
      }
    }
  }
  if (!r.empty()) {
    return Status::InvalidArgument("trailing bytes after sections");
  }
  return cursor;
}

bool BinaryStoreCursor::DecodePropAhead(Reader& r, PendingProp& pending) {
  uint64_t id_delta = 0, key_idx = 0;
  uint8_t value_tag = 0;
  if (!r.U64(&id_delta) || !r.U64(&key_idx) || !r.Byte(&value_tag)) {
    return Fail("property rows truncated");
  }
  const int64_t id =
      WrapAdd(pending.id, static_cast<int64_t>(id_delta));
  if (id < 1) return Fail("property owner id out of range");
  if (key_idx >= interns_.size()) {
    return Fail("property key intern index out of range");
  }
  PropertyRef ref;
  ref.key = interns_[static_cast<size_t>(key_idx)];
  switch (value_tag) {
    case 'i': {
      int64_t v = 0;
      if (!r.S64(&v)) return Fail("property value truncated");
      ref.value = v;
      break;
    }
    case 'd': {
      double v = 0.0;
      if (!r.Double(&v)) return Fail("property value truncated");
      ref.value = v;
      break;
    }
    case 's': {
      uint64_t idx = 0;
      if (!r.U64(&idx) || idx >= interns_.size()) {
        return Fail("property value intern index out of range");
      }
      ref.value = interns_[static_cast<size_t>(idx)];
      break;
    }
    default:
      return Fail("unknown property value tag");
  }
  pending.valid = true;
  pending.id = id;
  pending.ref = ref;
  return true;
}

bool BinaryStoreCursor::GatherProps(Reader& rows, PendingProp& pending,
                                    int64_t id) {
  scratch_props_.clear();
  size_t& seen = (&rows == &aprop_rows_) ? aprops_seen_ : eprops_seen_;
  const size_t total = (&rows == &aprop_rows_) ? n_aprops_ : n_eprops_;
  while (true) {
    if (!pending.valid) {
      if (seen >= total) break;
      if (rows.empty()) return Fail("property rows truncated");
      if (!DecodePropAhead(rows, pending)) return false;
      ++seen;
    }
    if (pending.id != id) {
      if (pending.id < id) {
        // Rows must be sorted by owner id; a backwards id means the
        // encoder lied or the buffer is corrupt.
        return Fail("property rows out of order");
      }
      break;
    }
    scratch_props_.push_back(pending.ref);
    pending.valid = false;
  }
  return true;
}

bool BinaryStoreCursor::EmitContext(RecordRef* record) {
  *record = RecordRef();
  record->kind = RecordRef::Kind::kContext;
  record->id = static_cast<int64_t>(next_context_) + 1;
  record->context_name = context_names_[next_context_];
  ++next_context_;
  return true;
}

bool BinaryStoreCursor::EmitExecution(RecordRef* record) {
  uint8_t type = 0;
  if (!e_types_.Byte(&type)) return Fail("execution types truncated");
  if (type >= kNumExecutionTypes) {
    return Fail("execution type out of range");
  }
  int64_t start_delta = 0, dur = 0;
  double cost = 0.0;
  if (!e_starts_.S64(&start_delta) || !e_durs_.S64(&dur) ||
      !e_costs_.Double(&cost)) {
    return Fail("execution columns truncated");
  }
  e_prev_start_ = WrapAdd(e_prev_start_, start_delta);
  const int64_t id = next_execution_;
  if (!GatherProps(eprop_rows_, pending_eprop_, id)) return false;
  *record = RecordRef();
  record->kind = RecordRef::Kind::kExecution;
  record->id = id;
  record->execution_type = static_cast<ExecutionType>(type);
  record->start_time = e_prev_start_;
  record->end_time = WrapAdd(e_prev_start_, dur);
  record->succeeded = Bit(e_succ_, e_row_);
  record->compute_cost = cost;
  record->properties = scratch_props_;
  ++e_row_;
  ++next_execution_;
  return true;
}

bool BinaryStoreCursor::EmitArtifact(RecordRef* record) {
  uint8_t type = 0;
  if (!a_types_.Byte(&type)) return Fail("artifact types truncated");
  if (type >= kNumArtifactTypes) {
    return Fail("artifact type out of range");
  }
  int64_t delta = 0;
  if (!a_times_.S64(&delta)) return Fail("artifact times truncated");
  a_prev_time_ = WrapAdd(a_prev_time_, delta);
  const int64_t id = next_artifact_;
  if (!GatherProps(aprop_rows_, pending_aprop_, id)) return false;
  *record = RecordRef();
  record->kind = RecordRef::Kind::kArtifact;
  record->id = id;
  record->artifact_type = static_cast<ArtifactType>(type);
  record->create_time = a_prev_time_;
  record->properties = scratch_props_;
  ++a_row_;
  ++next_artifact_;
  return true;
}

bool BinaryStoreCursor::DecodeEventAhead() {
  int64_t de = 0, da = 0, dt = 0;
  if (!v_execs_.S64(&de) || !v_arts_.S64(&da) || !v_times_.S64(&dt)) {
    return Fail("event columns truncated");
  }
  v_prev_exec_ = WrapAdd(v_prev_exec_, de);
  v_prev_art_ = WrapAdd(v_prev_art_, da);
  v_prev_time_ = WrapAdd(v_prev_time_, dt);
  pending_event_.execution = v_prev_exec_;
  pending_event_.artifact = v_prev_art_;
  pending_event_.kind = Bit(v_kinds_, next_event_) ? EventKind::kOutput
                                                   : EventKind::kInput;
  pending_event_.time = v_prev_time_;
  has_pending_event_ = true;
  return true;
}

bool BinaryStoreCursor::EmitEvent(RecordRef* record) {
  *record = RecordRef();
  record->kind = RecordRef::Kind::kEvent;
  record->event = pending_event_;
  has_pending_event_ = false;
  ++next_event_;
  return true;
}

bool BinaryStoreCursor::Next(RecordRef* record) {
  if (!status_.ok()) return false;
  if (next_context_ < n_contexts_) return EmitContext(record);
  if (next_event_ < n_events_) {
    if (!has_pending_event_ && !DecodeEventAhead()) return false;
    const Event& ev = pending_event_;
    if (next_execution_ <= ev.execution &&
        next_execution_ <= static_cast<int64_t>(n_executions_)) {
      return EmitExecution(record);
    }
    if (next_artifact_ <= ev.artifact &&
        next_artifact_ <= static_cast<int64_t>(n_artifacts_)) {
      return EmitArtifact(record);
    }
    return EmitEvent(record);
  }
  if (next_execution_ <= static_cast<int64_t>(n_executions_)) {
    return EmitExecution(record);
  }
  if (next_artifact_ <= static_cast<int64_t>(n_artifacts_)) {
    return EmitArtifact(record);
  }
  // End of feed: every declared property row must have found its node.
  if (pending_aprop_.valid || aprops_seen_ < n_aprops_ ||
      pending_eprop_.valid || eprops_seen_ < n_eprops_) {
    return Fail("orphan property rows after all nodes");
  }
  return false;
}

}  // namespace mlprov::metadata
