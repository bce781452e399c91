#include "harness.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "model/bulk_load.h"
#include "server/protocol.h"
#include "util/file_io.h"

namespace e2e {

namespace store = meetxml::store;

double NowUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t at = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(at, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double LinearFitR2(const std::vector<double>& x,
                   const std::vector<double>& y) {
  double mx = Mean(x);
  double my = Mean(y);
  double sxx = 0, syy = 0, sxy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  if (sxx == 0 || syy == 0) return 0;
  return sxy * sxy / (sxx * syy);
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "null";
}

JsonObject& JsonObject::Num(std::string_view key, double value) {
  return Raw(key, JsonNumber(value));
}
JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  return Raw(key, JsonQuote(value));
}
JsonObject& JsonObject::Bool(std::string_view key, bool value) {
  return Raw(key, value ? "true" : "false");
}
JsonObject& JsonObject::Raw(std::string_view key, std::string json) {
  fields_.emplace_back(std::string(key), std::move(json));
  return *this;
}

std::string JsonObject::Build() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

void MetricSet::Add(std::string name, double value, std::string unit) {
  items_.emplace_back(std::move(name),
                      std::make_pair(value, std::move(unit)));
}

std::string MetricSet::ToJson() const {
  JsonObject out;
  for (const auto& [name, item] : items_) {
    out.Raw(name, JsonObject()
                      .Num("value", item.first)
                      .Str("unit", item.second)
                      .Build());
  }
  return out.Build();
}

LoopStats RunClosedLoop(int clients, double seconds, const OpFn& op) {
  LoopStats stats;
  stats.latencies_us.resize(clients);
  std::vector<uint64_t> failed(clients, 0);
  const double deadline = NowUs() + seconds * 1e6;
  auto run = [&](int client) {
    while (NowUs() < deadline) {
      double latency_us = 0;
      if (!op(client, &latency_us)) ++failed[client];
      stats.latencies_us[client].push_back(latency_us);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(run, c);
  run(0);
  for (std::thread& thread : threads) thread.join();

  for (int c = 0; c < clients; ++c) {
    stats.attempted += stats.latencies_us[c].size();
    stats.failed += failed[c];
  }
  return stats;
}

void LoopStats::Append(const LoopStats& other) {
  latencies_us.resize(std::max(latencies_us.size(), other.latencies_us.size()));
  for (size_t c = 0; c < other.latencies_us.size(); ++c) {
    latencies_us[c].insert(latencies_us[c].end(),
                           other.latencies_us[c].begin(),
                           other.latencies_us[c].end());
  }
  attempted += other.attempted;
  failed += other.failed;
}

std::vector<double> LoopStats::Latencies() const {
  std::vector<double> out;
  for (const std::vector<double>& client : latencies_us) {
    out.insert(out.end(), client.begin(), client.end());
  }
  return out;
}

double LoopStats::OpsPerSecond() const {
  double total = 0;
  for (const std::vector<double>& client : latencies_us) {
    double busy_us = 0;
    for (double latency_us : client) busy_us += latency_us;
    if (busy_us > 0) total += static_cast<double>(client.size()) / busy_us;
  }
  return total * 1e6;
}

std::string FileStem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

Result<store::Catalog> SetUpCatalog(const std::vector<std::string>& files,
                                    const std::string& image,
                                    SetupSample* sample) {
  *sample = SetupSample{};
  const double start = NowUs();
  store::Catalog building;
  for (const std::string& file : files) {
    std::string name = FileStem(file);
    double t0 = NowUs();
    MEETXML_ASSIGN_OR_RETURN(meetxml::model::StoredDocument doc,
                             meetxml::model::BulkShredXmlFile(file));
    double t1 = NowUs();
    MEETXML_RETURN_NOT_OK(building.Add(name, std::move(doc)).status());
    double t2 = NowUs();
    MEETXML_RETURN_NOT_OK(building.EnsureIndex(name));
    double t3 = NowUs();
    sample->shred_ms += (t1 - t0) / 1e3;
    sample->add_ms += (t2 - t1) / 1e3;
    sample->index_ms += (t3 - t2) / 1e3;
    sample->xml_bytes += std::filesystem::file_size(file);
  }
  double t0 = NowUs();
  MEETXML_RETURN_NOT_OK(building.SaveToFile(image));
  double t1 = NowUs();
  store::CatalogLoadOptions load;
  load.lazy = true;
  load.mode = meetxml::model::LoadMode::kView;
  MEETXML_ASSIGN_OR_RETURN(store::Catalog served,
                           store::Catalog::LoadFromFile(image, load));
  double t2 = NowUs();
  MEETXML_RETURN_NOT_OK(served.Warm(/*build_text_indexes=*/true));
  double t3 = NowUs();
  sample->save_ms = (t1 - t0) / 1e3;
  sample->open_ms = (t2 - t1) / 1e3;
  sample->warm_ms = (t3 - t2) / 1e3;
  sample->total_s = (t3 - start) / 1e6;
  sample->image_bytes = std::filesystem::file_size(image);
  return served;
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  MEETXML_ASSIGN_OR_RETURN(std::string text,
                           meetxml::util::ReadFileToString(path));
  std::vector<std::string> lines;
  size_t at = 0;
  while (at < text.size()) {
    size_t end = text.find('\n', at);
    if (end == std::string::npos) end = text.size();
    if (end > at) lines.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  return lines;
}

Result<std::vector<std::string>> SplitTabs(std::string_view line,
                                           size_t fields) {
  std::vector<std::string> out;
  size_t at = 0;
  while (true) {
    size_t end = line.find('\t', at);
    out.emplace_back(line.substr(at, end - at));
    if (end == std::string_view::npos) break;
    at = end + 1;
  }
  if (out.size() != fields) {
    return Status::InvalidArgument("expected ", fields,
                                   " tab-separated fields in '", line, "'");
  }
  return out;
}

meetxml::query::ExecuteOptions ServedExecuteOptions(unsigned merge_threads) {
  meetxml::query::ExecuteOptions options;
  options.merge_threads = merge_threads;
  options.limit_hint =
      static_cast<size_t>(meetxml::server::kMaxQueryTableBytes / 2);
  return options;
}

std::vector<std::vector<std::string>> TableRows(std::string_view table) {
  std::vector<std::vector<std::string>> rows;
  size_t at = 0;
  int line_no = 0;
  while (at < table.size()) {
    size_t end = table.find('\n', at);
    if (end == std::string_view::npos) end = table.size();
    std::string_view line = table.substr(at, end - at);
    at = end + 1;
    // Line 0 is the header, line 1 the rule under it.
    if (line_no++ < 2 || line == "(truncated)") continue;
    std::vector<std::string> cells;
    size_t pos = 0;
    while (pos < line.size()) {
      size_t cell_end = line.find(' ', pos);
      if (cell_end == std::string_view::npos) cell_end = line.size();
      if (cell_end > pos) cells.emplace_back(line.substr(pos, cell_end - pos));
      pos = cell_end + 1;
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

const char* LayerName(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "server", "store", "query", "text", "core", "model"};
  return kNames[layer];
}

uint64_t TracedRequest::Record(uint64_t parent, std::string name,
                               double start_us, double end_us) {
  Span span;
  span.id = spans.size() + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.start_us = start_us;
  span.end_us = end_us;
  spans.push_back(std::move(span));
  return spans.size();
}

double TracedRequest::Duration(uint64_t span) const {
  const Span& s = spans[span - 1];
  return s.end_us - s.start_us;
}

void TracedRequest::Attribute(Layer layer, double us) {
  if (us < 0) {
    ++clamped;
    clamped_us -= us;
    us = 0;
  }
  self_us[layer] += us;
}

Status WriteTraceFile(const std::string& path, std::string_view workload,
                      const std::vector<TracedRequest>& requests) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot write ", path);
  out << "{\"workload\": " << JsonQuote(workload)
      << ", \"time_unit\": \"us\", \"requests\": [\n";
  for (size_t r = 0; r < requests.size(); ++r) {
    const TracedRequest& request = requests[r];
    JsonObject stages;
    for (const auto& [name, us] : request.stages_us) stages.Num(name, us);
    JsonObject self;
    for (int layer = 0; layer < kLayerCount; ++layer) {
      self.Num(LayerName(static_cast<Layer>(layer)), request.self_us[layer]);
    }
    std::string spans = "[";
    for (size_t s = 0; s < request.spans.size(); ++s) {
      const Span& span = request.spans[s];
      if (s > 0) spans += ", ";
      spans += JsonObject()
                   .Num("id", static_cast<double>(span.id))
                   .Num("parent", static_cast<double>(span.parent))
                   .Str("name", span.name)
                   .Num("start", span.start_us)
                   .Num("end", span.end_us)
                   .Build();
    }
    spans += "]";
    out << JsonObject()
               .Num("request", static_cast<double>(request.id))
               .Str("op", request.op)
               .Num("op_us", request.op_us)
               .Raw("service_stages_us", stages.Build())
               .Raw("self_us", self.Build())
               .Num("clamped", request.clamped)
               .Num("clamped_us", request.clamped_us)
               .Raw("spans", spans)
               .Build()
        << (r + 1 < requests.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.close();
  if (!out) return Status::Internal("cannot write ", path);
  return Status::OK();
}

double LayerSamples::MeanOf(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : Mean(it->second);
}

double LayerSamples::SumOf(const std::string& name) const {
  auto it = samples_.find(name);
  if (it == samples_.end()) return 0;
  double sum = 0;
  for (double v : it->second) sum += v;
  return sum;
}

}  // namespace e2e
