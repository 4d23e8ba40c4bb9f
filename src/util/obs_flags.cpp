#include "util/obs_flags.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/debug_endpoint.h"
#include "obs/profiler.h"
#include "obs/rules.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/strings.h"

namespace auric::util {

LivePlaneOptions declare_live_plane_flags(Args& args) {
  LivePlaneOptions options;
  const std::string serve = args.get_string(
      "serve-metrics", "",
      "serve /metrics /healthz /varz /tracez /logz on 127.0.0.1 (bare flag or 0 = ephemeral port)");
  options.sample_interval_ms =
      args.get_double("sample-interval-ms", 100.0, "live-plane sampler cadence in ms");
  options.rules_file = args.get_string("rules", "", "alert rules CSV evaluated every sample tick");
  options.series_out =
      args.get_string("series-out", "", "write the sampled time series CSV here at exit");
  options.profile_out = args.get_string(
      "profile-out", "", "profile the whole run; write flamegraph-collapsed stacks here at exit");
  options.trace_out = args.get_string(
      "trace-out", "", "write the span JSONL (tracestats input) here at exit");

  if (serve.empty() || serve == "false" || serve == "no") {
    options.serve = false;
    return options;
  }
  options.serve = true;
  if (serve == "true" || serve == "yes") {  // bare --serve-metrics
    options.port = 0;
    return options;
  }
  try {
    const int port = std::stoi(serve);
    if (port < 0 || port > 65535) throw std::out_of_range(serve);
    options.port = static_cast<std::uint16_t>(port);
  } catch (const std::exception&) {
    throw std::invalid_argument("--serve-metrics expects a port (0 = ephemeral), got '" + serve +
                                "'");
  }
  return options;
}

namespace {

constexpr const char* kPlainText = "text/plain; charset=utf-8";

}  // namespace

LivePlane::LivePlane(LivePlaneOptions options, obs::MetricsRegistry& registry)
    : options_(std::move(options)), registry_(&registry) {
  if (options_.samples()) {
    rules_ = std::make_unique<obs::RuleEngine>(*registry_);
    // Alert transitions are log lines like any other: timestamped, leveled,
    // filtered by AURIC_LOG_LEVEL and counted in auric_log_messages_total.
    rules_->set_log([](const std::string& line) { log_warn(line); });
    if (!options_.rules_file.empty()) rules_->load_file(options_.rules_file);

    obs::SamplerOptions sampler_options;
    sampler_options.interval_ms = options_.sample_interval_ms;
    sampler_ = std::make_unique<obs::Sampler>(*registry_, sampler_options);
    // Derived gauges refresh just before each snapshot, so every sample
    // (and every rule evaluation) sees current values.
    obs::Gauge& trace_drops = registry_->gauge(
        "obs_trace_ring_dropped", "spans overwritten after the trace ring filled");
    sampler_->set_pre_tick([&trace_drops] {
      trace_drops.set(static_cast<double>(obs::TraceRecorder::global().dropped()));
    });
    obs::RuleEngine* rules = rules_.get();
    obs::Sampler* sampler = sampler_.get();
    sampler_->set_on_tick([rules, sampler](double t) { rules->evaluate(*sampler, t); });
  }
  if (!options_.profile_out.empty()) {
    if (!obs::Profiler::supported()) {
      log_warn("--profile-out: profiler unavailable in this build (sanitizer?); ignoring");
    } else if (obs::Profiler::global().start()) {
      profiling_ = true;
    } else {
      log_warn("--profile-out: a profile is already running; ignoring");
    }
  }
}

LivePlane::~LivePlane() { stop(); }

void LivePlane::start() {
  if (started_ || stopped_) return;
  started_ = true;
  const std::string rules_note =
      options_.rules_file.empty() ? std::string() : ", rules=" + options_.rules_file;
  if (options_.serve) {
    obs::HttpListenerOptions listener_options;
    listener_options.port = options_.port;
    listener_options.name = "live plane";
    listener_ = std::make_unique<obs::HttpListener>(
        [this](const obs::HttpRequest& request) { return handle(request.method, request.target); },
        std::move(listener_options));
    listener_->start();
    log_info(format(
        "live plane: http://127.0.0.1:%u/metrics (healthz, varz, tracez, logz, profilez)%s",
        static_cast<unsigned>(port()), rules_note.c_str()));
  } else if (sampler_ != nullptr) {
    log_info(format("live plane: sampling every %g ms%s", options_.sample_interval_ms,
                    rules_note.c_str()));
  }
  if (sampler_ != nullptr) sampler_->start();
}

void LivePlane::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (listener_ != nullptr) listener_->stop();
  if (sampler_ != nullptr) {
    sampler_->stop();
    if (!options_.series_out.empty()) {
      try {
        // A final tick captures the end state (the background cadence may
        // not have sampled since the last increment); +1 ms keeps the time
        // axis strictly increasing after manual ticks too.
        sampler_->tick(sampler_->last_time().value_or(0.0) + 1e-3);
        sampler_->write_series_csv(options_.series_out);
        log_info("live plane: series written to " + options_.series_out);
      } catch (const std::exception& e) {
        log_error(std::string("--series-out: ") + e.what());
      }
    }
  }
  if (profiling_) {
    const obs::ProfileReport report = obs::Profiler::global().stop();
    std::FILE* f = std::fopen(options_.profile_out.c_str(), "w");
    if (f == nullptr) {
      log_error("--profile-out: cannot open " + options_.profile_out);
    } else {
      std::fwrite(report.folded.data(), 1, report.folded.size(), f);
      std::fclose(f);
      log_info(format("profile: %llu samples (%llu dropped) written to %s",
                      static_cast<unsigned long long>(report.samples),
                      static_cast<unsigned long long>(report.dropped),
                      options_.profile_out.c_str()));
    }
  }
  if (!options_.trace_out.empty()) {
    try {
      obs::write_trace_file(obs::TraceRecorder::global(), options_.trace_out);
      log_info("trace: span JSONL written to " + options_.trace_out);
    } catch (const std::exception& e) {
      log_error(std::string("--trace-out: ") + e.what());
    }
  }
}

void LivePlane::set_modelz(std::function<std::string()> source) {
  std::lock_guard<std::mutex> lock(modelz_mu_);
  modelz_ = std::move(source);
}

obs::HttpResponse LivePlane::handle(std::string_view method, std::string_view target) const {
  if (method != "GET") return {405, kPlainText, "only GET is supported\n", {}};
  // Split the query string off; /tracez and /profilez take parameters, the
  // rest ignore them.
  std::string_view query;
  const std::size_t qpos = target.find('?');
  if (qpos != std::string_view::npos) {
    query = target.substr(qpos + 1);
    target = target.substr(0, qpos);
  }
  if (target == "/healthz") {
    if (rules_ == nullptr) {
      return {200, "application/json", "{\"status\":\"ok\",\"rules\":0,\"firing\":[]}", {}};
    }
    return {rules_->healthy() ? 200 : 503, "application/json", rules_->healthz_json(), {}};
  }
  if (std::optional<obs::HttpResponse> debug = obs::debug_endpoint(target, query, *registry_)) {
    return std::move(*debug);
  }
  // Copy the source out under the lock and render outside it, so a slow
  // source never blocks (un)registration.
  std::function<std::string()> modelz;
  {
    std::lock_guard<std::mutex> lock(modelz_mu_);
    modelz = modelz_;
  }
  if (target == "/modelz" && modelz) return {200, "application/json", modelz(), {}};
  if (target == "/" || target.empty()) {
    return {200, kPlainText,
            std::string("auric live plane\n/metrics /healthz /varz /tracez /logz /profilez") +
                (modelz ? " /modelz\n" : "\n"),
            {}};
  }
  return {404, kPlainText, "unknown endpoint\n", {}};
}

}  // namespace auric::util
