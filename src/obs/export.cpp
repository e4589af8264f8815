#include "obs/export.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace vlm::obs {

namespace {

// Metric names are repo-controlled ("layer/what"), but escape anyway so
// a stray quote can never corrupt the document.
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

std::string indent_str(int indent) {
  return std::string(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
}

const char* unit_suffix(Unit unit) {
  return unit == Unit::kNanoseconds ? "_seconds" : "";
}

}  // namespace

const char* export_format_name(ExportFormat format) {
  switch (format) {
    case ExportFormat::kJson: return "json";
    case ExportFormat::kPrometheus: return "prom";
    case ExportFormat::kCsv: return "csv";
  }
  return "unknown";
}

bool parse_export_format(std::string_view name, ExportFormat& format) {
  if (name == "json") {
    format = ExportFormat::kJson;
  } else if (name == "prom") {
    format = ExportFormat::kPrometheus;
  } else if (name == "csv") {
    format = ExportFormat::kCsv;
  } else {
    return false;
  }
  return true;
}

std::string to_json(const Snapshot& snapshot, std::string_view extra,
                    int indent) {
  const std::string pad = indent_str(indent);
  const std::string pad2 = pad + " ";
  std::string out = "{\n";
  if (!extra.empty()) {
    out += pad;
    out += extra;
    out += '\n';
  }

  out += pad + "\"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad2 + "\"" + json_escape(snapshot.counters[i].first) +
           "\": " + std::to_string(snapshot.counters[i].second);
  }
  out += snapshot.counters.empty() ? "},\n" : "\n" + pad + "},\n";

  out += pad + "\"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad2 + "\"" + json_escape(snapshot.gauges[i].first) +
           "\": " + fmt_double(snapshot.gauges[i].second);
  }
  out += snapshot.gauges.empty() ? "},\n" : "\n" + pad + "},\n";

  out += pad + "\"info\": {";
  for (std::size_t i = 0; i < snapshot.info.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad2 + "\"" + json_escape(snapshot.info[i].first) + "\": \"" +
           json_escape(snapshot.info[i].second) + "\"";
  }
  out += snapshot.info.empty() ? "},\n" : "\n" + pad + "},\n";

  out += pad + "\"spans\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& [name, h] = snapshot.histograms[i];
    const char* suffix = unit_suffix(h.unit);
    out += i == 0 ? "\n" : ",\n";
    out += pad2 + "\"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"total" + suffix +
           "\": " + fmt_double(h.total) + ", \"min" + suffix +
           "\": " + fmt_double(h.min) + ", \"max" + suffix +
           "\": " + fmt_double(h.max) + ", \"p50" + suffix +
           "\": " + fmt_double(h.p50) + ", \"p99" + suffix +
           "\": " + fmt_double(h.p99) + "}";
  }
  out += snapshot.histograms.empty() ? "}\n" : "\n" + pad + "}\n";

  out += indent_str(indent - 1) + "}";
  return out;
}

namespace {

std::string prom_name(std::string_view name) {
  std::string out = "vlm_";
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

}  // namespace

std::string to_prometheus_text(const Snapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = prom_name(name) + "_total";
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = prom_name(name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + fmt_double(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.info) {
    const std::string metric = prom_name(name) + "_info";
    out += "# TYPE " + metric + " gauge\n";
    out += metric + "{value=\"" + value + "\"} 1\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string metric =
        prom_name(name) + (h.unit == Unit::kNanoseconds ? "_seconds" : "");
    out += "# TYPE " + metric + " summary\n";
    out += metric + "{quantile=\"0.5\"} " + fmt_double(h.p50) + "\n";
    out += metric + "{quantile=\"0.99\"} " + fmt_double(h.p99) + "\n";
    out += metric + "_sum " + fmt_double(h.total) + "\n";
    out += metric + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string csv_header() {
  return "period,kind,name,count,total,min,max,p50,p99,value\n";
}

std::string to_csv_rows(const Snapshot& snapshot, std::uint64_t period) {
  const std::string prefix = std::to_string(period) + ",";
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    out += prefix + "counter," + name + ",,,,,,," + std::to_string(value) +
           "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += prefix + "gauge," + name + ",,,,,,," + fmt_double(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.info) {
    out += prefix + "info," + name + ",,,,,,," + value + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    out += prefix + "span," + name + "," + std::to_string(h.count) + "," +
           fmt_double(h.total) + "," + fmt_double(h.min) + "," +
           fmt_double(h.max) + "," + fmt_double(h.p50) + "," +
           fmt_double(h.p99) + ",\n";
  }
  return out;
}

ExportConfig resolve_export_config(std::string_view cli_path,
                                   std::string_view cli_format) {
  ExportConfig config;
  if (!cli_path.empty()) {
    config.path.assign(cli_path);
  } else if (const char* env = std::getenv("VLM_METRICS");
             env != nullptr && *env != '\0') {
    config.path = env;
  }

  std::string format_name(cli_format);
  if (format_name.empty()) {
    if (const char* env = std::getenv("VLM_METRICS_FORMAT");
        env != nullptr && *env != '\0') {
      format_name = env;
    }
  }
  if (!format_name.empty() &&
      !parse_export_format(format_name, config.format)) {
    // Same warn-once-per-value convention as VLM_KERNELS: a
    // stale export degrades loudly to the default instead of crashing.
    static std::mutex mutex;
    static std::set<std::string>* warned = new std::set<std::string>();
    const std::lock_guard<std::mutex> lock(mutex);
    if (warned->insert(format_name).second) {
      std::fprintf(stderr,
                   "vlm: warning: metrics format '%s' is not one of "
                   "json|prom|csv; using json\n",
                   format_name.c_str());
    }
  }
  return config;
}

MetricsExportGuard::~MetricsExportGuard() {
  if (!armed_ || config_.path.empty()) return;
  const Snapshot snapshot = MetricsRegistry::global().snapshot();
  std::string content;
  switch (config_.format) {
    case ExportFormat::kJson:
      content = to_json(snapshot) + "\n";
      break;
    case ExportFormat::kPrometheus:
      content = to_prometheus_text(snapshot);
      break;
    case ExportFormat::kCsv:
      content = csv_header() + to_csv_rows(snapshot, 0);
      break;
  }
  write_text_file(config_.path, content);
}

bool write_text_file(const std::string& path, std::string_view content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "vlm: warning: cannot write metrics to '%s'\n",
                 path.c_str());
    return false;
  }
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), file);
  const bool closed = std::fclose(file) == 0;
  const bool ok = written == content.size() && closed;
  if (!ok) {
    std::fprintf(stderr, "vlm: warning: short write of metrics to '%s'\n",
                 path.c_str());
  }
  return ok;
}

}  // namespace vlm::obs
