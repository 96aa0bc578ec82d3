#include "service/job_spec.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "core/ldiversity.h"
#include "core/minimality.h"
#include "core/recoder.h"
#include "models/koptimize.h"
#include "models/mondrian.h"
#include "relation/csv.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "service/problem_loader.h"

namespace incognito {
namespace {

using obs::JsonDouble;
using obs::JsonString;
using obs::JsonValue;

/// The wire spelling of an Incognito variant (the --variant flag values;
/// IncognitoVariantName gives the human display form instead).
const char* VariantWireName(IncognitoVariant variant) {
  switch (variant) {
    case IncognitoVariant::kBasic:
      return "basic";
    case IncognitoVariant::kSuperRoots:
      return "superroots";
    case IncognitoVariant::kCube:
      return "cube";
  }
  return "basic";
}

const char* ResumeModeWireName(ResumeMode mode) {
  switch (mode) {
    case ResumeMode::kOff:
      return "off";
    case ResumeMode::kAuto:
      return "auto";
    case ResumeMode::kRequire:
      return "require";
  }
  return "off";
}

bool ParseResumeModeWireName(const std::string& text, ResumeMode* out) {
  for (ResumeMode m :
       {ResumeMode::kOff, ResumeMode::kAuto, ResumeMode::kRequire}) {
    if (text == ResumeModeWireName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

int64_t Int64Field(const JsonValue& v) {
  return static_cast<int64_t>(v.NumberOr(0));
}

/// Fills the view-identity fields from a released view: the CRC-32 of its
/// CSV, fed piece by piece so the job never holds the whole text.
void FillView(const Table& view, JobResult* out) {
  uint32_t crc = 0;
  RenderCsv(view, ',', [&crc](std::string_view piece) {
    crc = Crc32(piece.data(), piece.size(), crc);
  });
  out->view_crc32 = crc;
  out->view_rows = static_cast<int64_t>(view.num_rows());
}

/// Sorted canonical node strings (the run's own order is deterministic,
/// but sorting makes the contract independent of traversal order).
std::vector<std::string> NodeStrings(const std::vector<SubsetNode>& nodes,
                                     const QuasiIdentifier& qid) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const SubsetNode& node : nodes) out.push_back(node.ToString(&qid));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

bool ParseVariantWireName(const std::string& text, IncognitoVariant* out) {
  for (IncognitoVariant v :
       {IncognitoVariant::kBasic, IncognitoVariant::kSuperRoots,
        IncognitoVariant::kCube}) {
    if (text == VariantWireName(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

const char* JobModelName(JobModel model) {
  switch (model) {
    case JobModel::kKAnonymity:
      return "k-anonymity";
    case JobModel::kLDiversity:
      return "l-diversity";
    case JobModel::kKOptimize:
      return "k-optimize";
    case JobModel::kMondrian:
      return "mondrian";
  }
  return "k-anonymity";
}

bool ParseJobModel(const std::string& text, JobModel* model) {
  for (JobModel m : {JobModel::kKAnonymity, JobModel::kLDiversity,
                     JobModel::kKOptimize, JobModel::kMondrian}) {
    if (text == JobModelName(m)) {
      *model = m;
      return true;
    }
  }
  return false;
}

std::string JobSpecToJson(const JobSpec& spec) {
  std::string out = "{";
  out += "\"tenant\":" + JsonString(spec.tenant);
  out += ",\"input\":" + JsonString(spec.input);
  out += ",\"qid\":[";
  for (size_t i = 0; i < spec.qid.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(spec.qid[i]);
  }
  out += "],\"hierarchies\":{";
  bool first = true;
  for (const auto& [col, hspec] : spec.hierarchies) {
    if (!first) out += ",";
    first = false;
    out += JsonString(col) + ":" + JsonString(hspec);
  }
  out += "},\"model\":" + JsonString(JobModelName(spec.model));
  out += ",\"k\":" + std::to_string(spec.k);
  out += ",\"l\":" + std::to_string(spec.l);
  out += ",\"sensitive\":" + JsonString(spec.sensitive_attribute);
  out += ",\"max_suppressed\":" + std::to_string(spec.max_suppressed);
  out += ",\"variant\":" + JsonString(VariantWireName(spec.variant));
  out += ",\"deadline_ms\":" + std::to_string(spec.exec.deadline_ms);
  out += ",\"memory_budget_bytes\":" +
         std::to_string(spec.exec.memory_budget_bytes);
  out += ",\"threads\":" + std::to_string(spec.exec.num_threads);
  out += ",\"checkpoint\":" + JsonString(spec.exec.checkpoint.path);
  out += ",\"checkpoint_interval_ms\":" +
         std::to_string(spec.exec.checkpoint.interval_ms);
  out += ",\"resume\":" +
         JsonString(ResumeModeWireName(spec.exec.checkpoint.resume));
  out += std::string(",\"partial_ok\":") +
         (spec.partial_ok ? "true" : "false");
  out += "}";
  return out;
}

Result<JobSpec> JobSpecFromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("job spec must be a JSON object");
  }
  JobSpec spec;
  for (const auto& [key, v] : value.object) {
    if (key == "tenant") {
      spec.tenant = v.StringOr(spec.tenant);
    } else if (key == "input") {
      spec.input = v.StringOr("");
    } else if (key == "qid") {
      if (!v.is_array()) {
        return Status::InvalidArgument("\"qid\" must be an array of names");
      }
      for (const JsonValue& name : v.array) {
        spec.qid.push_back(name.StringOr(""));
      }
    } else if (key == "hierarchies") {
      if (!v.is_object()) {
        return Status::InvalidArgument(
            "\"hierarchies\" must be an object of COL:SPEC");
      }
      for (const auto& [col, hspec] : v.object) {
        spec.hierarchies[col] = hspec.StringOr("");
      }
    } else if (key == "model") {
      if (!ParseJobModel(v.StringOr(""), &spec.model)) {
        return Status::InvalidArgument(
            "bad \"model\" value '" + v.StringOr("") +
            "' (want k-anonymity, l-diversity, k-optimize, or mondrian)");
      }
    } else if (key == "k") {
      spec.k = Int64Field(v);
    } else if (key == "l") {
      spec.l = Int64Field(v);
    } else if (key == "sensitive") {
      spec.sensitive_attribute = v.StringOr("");
    } else if (key == "max_suppressed") {
      spec.max_suppressed = Int64Field(v);
    } else if (key == "variant") {
      if (!ParseVariantWireName(v.StringOr(""), &spec.variant)) {
        return Status::InvalidArgument(
            "bad \"variant\" value '" + v.StringOr("") +
            "' (want basic, superroots, or cube)");
      }
    } else if (key == "deadline_ms") {
      spec.exec.deadline_ms = Int64Field(v);
    } else if (key == "memory_budget_bytes") {
      spec.exec.memory_budget_bytes = Int64Field(v);
    } else if (key == "threads") {
      // Range-checked as a double first: the cast of an out-of-range value
      // is undefined.
      const double threads = v.NumberOr(0);
      if (!(threads >= 0 && threads <= kMaxThreads)) {
        return Status::InvalidArgument(StringPrintf(
            "bad \"threads\" value %g (want 0-%d; 0 keeps the default)",
            threads, kMaxThreads));
      }
      spec.exec.num_threads = static_cast<int>(threads);
    } else if (key == "checkpoint") {
      spec.exec.checkpoint.path = v.StringOr("");
    } else if (key == "checkpoint_interval_ms") {
      spec.exec.checkpoint.interval_ms = Int64Field(v);
    } else if (key == "resume") {
      if (!ParseResumeModeWireName(v.StringOr(""),
                                   &spec.exec.checkpoint.resume)) {
        return Status::InvalidArgument(
            "bad \"resume\" value '" + v.StringOr("") +
            "' (want off, auto, or require)");
      }
    } else if (key == "partial_ok") {
      spec.partial_ok = v.is_bool() && v.b;
    } else {
      return Status::InvalidArgument("unknown job spec key \"" + key + "\"");
    }
  }
  if (spec.input.empty()) {
    return Status::InvalidArgument("job spec needs a non-empty \"input\"");
  }
  if (spec.qid.empty()) {
    return Status::InvalidArgument("job spec needs a non-empty \"qid\"");
  }
  return spec;
}

std::string JobResultToJson(const JobResult& result) {
  std::string out = "{";
  out += "\"status\":" + JsonString(StatusCodeName(result.status.code()));
  out += std::string(",\"partial\":") + (result.partial ? "true" : "false");
  out += ",\"nodes\":[";
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(result.nodes[i]);
  }
  out += "],\"completed_iterations\":" +
         std::to_string(result.completed_iterations);
  out += ",\"view_crc32\":" + std::to_string(result.view_crc32);
  out += ",\"view_rows\":" + std::to_string(result.view_rows);
  out += ",\"suppressed_tuples\":" + std::to_string(result.suppressed_tuples);
  out += ",\"cost\":" + JsonDouble(result.cost);
  out += ",\"num_partitions\":" + std::to_string(result.num_partitions);
  // Only the deterministic search counters: timing, governor activity, and
  // scheduler telemetry describe the run, not the answer, and would break
  // the daemon-vs-direct bit-identity contract.
  out += ",\"counters\":{";
  out += "\"nodes_checked\":" + std::to_string(result.stats.nodes_checked);
  out += ",\"nodes_marked\":" + std::to_string(result.stats.nodes_marked);
  out += ",\"table_scans\":" + std::to_string(result.stats.table_scans);
  out += ",\"rollups\":" + std::to_string(result.stats.rollups);
  out += ",\"freq_groups_built\":" +
         std::to_string(result.stats.freq_groups_built);
  out += ",\"candidate_nodes\":" +
         std::to_string(result.stats.candidate_nodes);
  out += "}}";
  return out;
}

JobResult ExecuteJob(const JobSpec& spec, ExecutionGovernor* governor) {
  JobResult out;
  if (INCOGNITO_FAULT_FIRED("service.job.run")) {
    out.status = Status::Internal("injected fault at service.job.run");
    return out;
  }
  Result<LoadedProblem> problem =
      LoadProblem(spec.input, spec.qid, spec.hierarchies);
  if (!problem.ok()) {
    out.status = problem.status();
    return out;
  }
  RunContext ctx = spec.exec.MakeContext(governor);
  AnonymizationConfig config;
  config.k = spec.k;
  config.max_suppressed = spec.max_suppressed;

  switch (spec.model) {
    case JobModel::kKAnonymity: {
      IncognitoOptions options;
      options.variant = spec.variant;
      PartialResult<IncognitoResult> r =
          RunIncognito(problem->table, problem->qid, config, options, ctx);
      out.status = r.status();
      out.partial = r.partial();
      if (r.hard_error()) return out;
      out.nodes = NodeStrings(r->anonymous_nodes, problem->qid);
      out.completed_iterations = r->completed_iterations;
      out.stats = r->stats;
      if (!r->anonymous_nodes.empty()) {
        SubsetNode minimal = MinimalByHeight(r->anonymous_nodes).front();
        Result<RecodeResult> view = ApplyFullDomainGeneralization(
            problem->table, problem->qid, minimal, config);
        if (!view.ok()) {
          out.status = view.status();
          out.partial = false;
          return out;
        }
        FillView(view->view, &out);
        out.suppressed_tuples = view->suppressed_tuples;
      }
      return out;
    }
    case JobModel::kLDiversity: {
      LDiversityConfig dconfig;
      dconfig.k = spec.k;
      dconfig.l = spec.l;
      dconfig.max_suppressed = spec.max_suppressed;
      dconfig.sensitive_attribute = spec.sensitive_attribute;
      PartialResult<LDiversityResult> r =
          RunLDiversityIncognito(problem->table, problem->qid, dconfig, ctx);
      out.status = r.status();
      out.partial = r.partial();
      if (r.hard_error()) return out;
      out.nodes = NodeStrings(r->diverse_nodes, problem->qid);
      out.completed_iterations = r->completed_iterations;
      out.stats = r->stats;
      if (!r->diverse_nodes.empty()) {
        SubsetNode minimal = MinimalByHeight(r->diverse_nodes).front();
        Result<RecodeResult> view = ApplyDiverseGeneralization(
            problem->table, problem->qid, minimal, dconfig);
        if (!view.ok()) {
          out.status = view.status();
          out.partial = false;
          return out;
        }
        FillView(view->view, &out);
        out.suppressed_tuples = view->suppressed_tuples;
      }
      return out;
    }
    case JobModel::kKOptimize: {
      PartialResult<KOptimizeResult> r =
          RunKOptimize(problem->table, problem->qid, config, {}, ctx);
      out.status = r.status();
      out.partial = r.partial();
      if (r.hard_error()) return out;
      // Both complete and partial releases carry a sound view (the
      // best-so-far cut set); the search effort doubles as the job's
      // progress measure.
      out.completed_iterations = r->nodes_visited;
      out.stats = r->stats;
      out.cost = r->cost;
      out.suppressed_tuples = r->suppressed_tuples;
      FillView(r->view, &out);
      return out;
    }
    case JobModel::kMondrian: {
      PartialResult<MondrianResult> r =
          RunMondrian(problem->table, problem->qid, config, ctx);
      out.status = r.status();
      out.partial = r.partial();
      if (r.hard_error()) return out;
      out.num_partitions = static_cast<int64_t>(r->num_partitions);
      out.completed_iterations = static_cast<int64_t>(r->num_partitions);
      out.stats = r->stats;
      FillView(r->view, &out);
      return out;
    }
  }
  out.status = Status::Internal("unknown job model");
  return out;
}

}  // namespace incognito
