#include "obs/profiler.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <utility>

#include "obs/export.h"

namespace seccloud::obs {

namespace {

using pairing::OpCounters;

constexpr std::uint64_t OpCounters::* kOpFields[] = {
    &OpCounters::pairings,   &OpCounters::miller_loops,   &OpCounters::final_exps,
    &OpCounters::point_muls, &OpCounters::gt_exps,        &OpCounters::hash_to_points,
    &OpCounters::msm_terms,  &OpCounters::gt_msm_terms};
static_assert(std::size(kOpFields) == kOpArgNames.size());

/// Reads the "ops.*" args back off a recorded event; absent keys are zero.
OpCounters parse_ops(const TraceEvent& event) {
  OpCounters ops;
  for (const auto& [key, value] : event.args) {
    for (std::size_t i = 0; i < kOpArgNames.size(); ++i) {
      if (key == kOpArgNames[i]) {
        std::uint64_t v = 0;
        std::from_chars(value.data(), value.data() + value.size(), v);
        ops.*kOpFields[i] = v;
        break;
      }
    }
  }
  return ops;
}

/// a − b clamped at zero per field: a child measured through the shared
/// mirror can never exceed its parent, but the clamp keeps a malformed
/// (hand-built) trace from wrapping around.
OpCounters saturating_sub(const OpCounters& a, const OpCounters& b) {
  OpCounters out;
  for (const auto field : kOpFields) {
    out.*field = a.*field >= b.*field ? a.*field - b.*field : 0;
  }
  return out;
}

bool is_zero(const OpCounters& ops) { return ops == OpCounters{}; }

}  // namespace

void write_op_counters(JsonWriter& w, const OpCounters& ops) {
  w.begin_object();
  for (std::size_t i = 0; i < kOpArgNames.size(); ++i) {
    // Strip the "ops." prefix: the enclosing key already says what it is.
    w.key(kOpArgNames[i].substr(4)).value(ops.*kOpFields[i]);
  }
  w.end_object();
}

// --- ProfileSpan ------------------------------------------------------------

void ProfileSpan::end() {
  if (!span_) return;
  const OpCounters delta = pairing::tls_op_counters() - begin_;
  for (std::size_t i = 0; i < kOpArgNames.size(); ++i) {
    if (const std::uint64_t v = delta.*kOpFields[i]; v != 0) {
      span_.arg(std::string{kOpArgNames[i]}, std::to_string(v));
    }
  }
  span_.end();
}

ProfileSpan profile_span(std::string name) {
  ProfileSpan ps;
  ps.span_ = trace_span(std::move(name));
  if (ps.span_) ps.begin_ = pairing::tls_op_counters();
  return ps;
}

// --- CostTable --------------------------------------------------------------

double CostTable::predict_ms(const OpCounters& ops) const noexcept {
  return static_cast<double>(ops.miller_loops) * miller_loop_ms +
         static_cast<double>(ops.final_exps) * final_exp_ms +
         static_cast<double>(ops.point_muls) * point_mul_ms +
         static_cast<double>(ops.gt_exps) * gt_exp_ms +
         static_cast<double>(ops.hash_to_points) * hash_to_point_ms;
}

// --- Profile ----------------------------------------------------------------

Profile Profile::from_events(std::span<const TraceEvent> events) {
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(events.size());
  for (const TraceEvent& event : events) {
    if (event.kind == EventKind::kSpan) sorted.push_back(&event);
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                     return a->dur_us > b->dur_us;  // enclosing span first
                   });

  struct Frame {
    const TraceEvent* event;
    std::string path;
    std::uint64_t child_time = 0;
    OpCounters child_ops;
  };
  std::map<std::uint32_t, std::vector<Frame>> stacks;
  std::map<std::string, PathStats> acc;

  const auto pop = [&](std::vector<Frame>& stack) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const std::uint64_t dur = frame.event->dur_us;
    const OpCounters ops = parse_ops(*frame.event);
    PathStats& stats = acc[frame.path];
    if (stats.path.empty()) stats.path = frame.path;
    ++stats.count;
    stats.incl_time += dur;
    stats.excl_time += dur - std::min(frame.child_time, dur);
    stats.incl_ops += ops;
    stats.excl_ops += saturating_sub(ops, frame.child_ops);
    if (!stack.empty()) {
      stack.back().child_time += dur;
      stack.back().child_ops += ops;
    }
  };

  for (const TraceEvent* event : sorted) {
    std::vector<Frame>& stack = stacks[event->tid];
    // The recorded depth says exactly how many enclosing spans are still
    // open: everything deeper has ended by the time this span began.
    while (stack.size() > event->depth) pop(stack);
    Frame frame{event, {}, 0, {}};
    frame.path = stack.empty() ? event->name : stack.back().path + ";" + event->name;
    stack.push_back(std::move(frame));
  }
  for (auto& [tid, stack] : stacks) {
    while (!stack.empty()) pop(stack);
  }

  Profile profile;
  profile.paths_.reserve(acc.size());
  for (auto& [path, stats] : acc) profile.paths_.push_back(std::move(stats));
  return profile;
}

Profile Profile::from_tracer(const Tracer& tracer) {
  const std::vector<TraceEvent> events = tracer.events();
  return from_events(events);
}

std::vector<PhaseStats> Profile::phases() const {
  std::map<std::string, PhaseStats> by_name;
  for (const PathStats& stats : paths_) {
    const std::size_t sep = stats.path.rfind(';');
    const std::string leaf =
        sep == std::string::npos ? stats.path : stats.path.substr(sep + 1);
    PhaseStats& phase = by_name[leaf];
    if (phase.name.empty()) phase.name = leaf;
    phase.count += stats.count;
    phase.incl_time += stats.incl_time;
    phase.excl_time += stats.excl_time;
    phase.incl_ops += stats.incl_ops;
    phase.excl_ops += stats.excl_ops;
  }
  std::vector<PhaseStats> out;
  out.reserve(by_name.size());
  for (auto& [name, phase] : by_name) out.push_back(std::move(phase));
  return out;
}

OpCounters Profile::total_ops() const noexcept {
  OpCounters total;
  for (const PathStats& stats : paths_) total += stats.excl_ops;
  return total;
}

std::uint64_t Profile::total_time() const noexcept {
  std::uint64_t total = 0;
  for (const PathStats& stats : paths_) total += stats.excl_time;
  return total;
}

std::string Profile::to_collapsed() const {
  std::string out;
  for (const PathStats& stats : paths_) {
    out += stats.path;
    out += ' ';
    out += std::to_string(stats.excl_time);
    out += '\n';
  }
  return out;
}

std::string Profile::to_json(const CostTable* costs) const {
  JsonWriter w;
  w.begin_object();
  w.key("paths").begin_array();
  for (const PathStats& stats : paths_) {
    w.begin_object();
    w.key("path").value(stats.path);
    w.key("count").value(stats.count);
    w.key("incl_us").value(stats.incl_time);
    w.key("excl_us").value(stats.excl_time);
    w.key("ops");
    write_op_counters(w, stats.incl_ops);
    w.key("self_ops");
    write_op_counters(w, stats.excl_ops);
    w.end_object();
  }
  w.end_array();

  const std::vector<PhaseStats> by_phase = phases();
  w.key("phases").begin_array();
  for (const PhaseStats& phase : by_phase) {
    w.begin_object();
    w.key("name").value(phase.name);
    w.key("count").value(phase.count);
    w.key("incl_us").value(phase.incl_time);
    w.key("excl_us").value(phase.excl_time);
    w.key("ops");
    write_op_counters(w, phase.incl_ops);
    w.key("self_ops");
    write_op_counters(w, phase.excl_ops);
    w.end_object();
  }
  w.end_array();

  w.key("total").begin_object();
  w.key("time_us").value(total_time());
  w.key("ops");
  write_op_counters(w, total_ops());
  w.end_object();

  if (costs != nullptr) {
    w.key("cost_table").begin_object();
    w.key("point_mul_ms").value(costs->point_mul_ms);
    w.key("miller_loop_ms").value(costs->miller_loop_ms);
    w.key("final_exp_ms").value(costs->final_exp_ms);
    w.key("gt_exp_ms").value(costs->gt_exp_ms);
    w.key("hash_to_point_ms").value(costs->hash_to_point_ms);
    w.end_object();
    w.key("predicted_vs_measured").begin_array();
    for (const PhaseStats& phase : by_phase) {
      if (is_zero(phase.incl_ops)) continue;  // no crypto work to price
      const double predicted = costs->predict_ms(phase.incl_ops);
      const double measured = static_cast<double>(phase.incl_time) / 1000.0;
      w.begin_object();
      w.key("phase").value(phase.name);
      w.key("measured_ms").value(measured);
      w.key("predicted_ms").value(predicted);
      if (predicted > 0.0) w.key("ratio").value(measured / predicted);
      w.key("ops");
      write_op_counters(w, phase.incl_ops);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return std::move(w).str();
}

}  // namespace seccloud::obs
