#include "engine/fleet.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

namespace nbv6::engine {

std::optional<FleetConfig> FleetConfig::parse(std::string_view text,
                                              std::string* error) {
  using cfgparse::parse_double;
  using cfgparse::parse_int;
  using cfgparse::parse_u64;
  using cfgparse::trim;

  auto fail = [error](std::string message) -> std::nullopt_t {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  auto at_line = [](int line_no, std::string_view rest) {
    return "line " + std::to_string(line_no) + ": " + std::string(rest);
  };

  FleetConfig cfg;
  // Scalar keys may appear at most once: a config that sets the same knob
  // twice is almost certainly a copy-paste error, and silently letting the
  // last line win would make two scenario files that look different run
  // identically (or vice versa).
  std::set<std::string, std::less<>> seen;
  // Event source lines, ordinal-aligned with cfg.timeline.events, so the
  // post-loop horizon check can name the offending line.
  std::vector<int> event_lines;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    if (auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      return fail(at_line(line_no, "missing '=' in '" + std::string(line) +
                                       "'"));
    std::string_view key = trim(line.substr(0, eq));
    std::string_view val = trim(line.substr(eq + 1));

    // Timeline events: repeatable by design (each line appends one event),
    // so they bypass the duplicate-key check.
    if (key.starts_with("timeline.")) {
      std::string ev_error;
      auto ev = Timeline::parse_event(key.substr(9), val, &ev_error);
      if (!ev)
        return fail(at_line(line_no, std::string(key) + ": " + ev_error));
      cfg.timeline->events.push_back(*ev);
      event_lines.push_back(line_no);
      continue;
    }

    if (!seen.insert(std::string(key)).second)
      return fail(at_line(line_no, "duplicate key '" + std::string(key) +
                                       "'"));

    // Fractions are per-residence probabilities: outside [0, 1] they are
    // not "clamped intent", they are bugs. parse_double already rejects
    // NaN and infinities for every double-valued key.
    auto frac = [&val](double& out) {
      return parse_double(val, out) && out >= 0.0 && out <= 1.0;
    };
    bool ok;
    if (key == "residences") ok = parse_int(val, cfg.residences.mut());
    else if (key == "days") ok = parse_int(val, cfg.days.mut());
    else if (key == "seed") ok = parse_u64(val, cfg.seed.mut());
    else if (key == "dual_stack_isp_frac") ok = frac(cfg.dual_stack_isp_frac.mut());
    else if (key == "broken_v6_frac") ok = frac(cfg.broken_v6_frac.mut());
    else if (key == "heavy_streamer_frac") ok = frac(cfg.heavy_streamer_frac.mut());
    else if (key == "background_only_frac") ok = frac(cfg.background_only_frac.mut());
    else if (key == "opt_out_frac") ok = frac(cfg.opt_out_frac.mut());
    else if (key == "absence_prob") ok = frac(cfg.absence_prob.mut());
    else if (key == "activity_scale_min")
      ok = parse_double(val, cfg.activity_scale_min.mut()) &&
           cfg.activity_scale_min >= 0.0;
    else if (key == "activity_scale_max")
      ok = parse_double(val, cfg.activity_scale_max.mut()) &&
           cfg.activity_scale_max >= 0.0;
    else if (key == "arrival.mode")
      ok = traffic::parse_arrival_mode(val, cfg.arrival->mode);
    else if (key == "arrival.ticks_per_hour")
      ok = parse_int(val, cfg.arrival->ticks_per_hour) &&
           cfg.arrival->ticks_per_hour >= 1 &&
           cfg.arrival->ticks_per_hour <= 3600;
    else  // unknown key: fail loudly, not silently
      return fail(at_line(line_no, "unknown key '" + std::string(key) + "'"));
    if (!ok)
      return fail(at_line(line_no, "invalid value '" + std::string(val) +
                                       "' for key '" + std::string(key) +
                                       "'"));
  }
  if (auto message = cfg.check(event_lines)) return fail(std::move(*message));
  return cfg;
}

std::optional<std::string> FleetConfig::check(
    std::span<const int> event_lines) const {
  if (residences < 1)
    return "residences must be >= 1 (got " + std::to_string(residences) + ")";
  if (days < 1) return "days must be >= 1 (got " + std::to_string(days) + ")";
  if (activity_scale_min > activity_scale_max)
    return "activity_scale_min exceeds activity_scale_max";
  // Timeline events are validated against the horizon only here: `days`
  // may appear anywhere in a file, including after the event lines. An
  // event whose window starts past the last simulated day can never fire —
  // that is a scenario bug (typo'd day, horizon shrunk without moving
  // events), not intent. Open-ended windows (no `end=`) and windows whose
  // tail runs past the horizon stay legal: evaluation clamps them to
  // [start_day, days - 1] deterministically.
  for (std::size_t e = 0; e < timeline->events.size(); ++e) {
    const auto& ev = timeline->events[e];
    if (ev.start_day < days) continue;
    std::string message = std::string("timeline.") + to_string(ev.kind) +
                          ": window starts on day " +
                          std::to_string(ev.start_day) + ", at or past the " +
                          std::to_string(days) + "-day horizon";
    if (e < event_lines.size())
      message = "line " + std::to_string(event_lines[e]) + ": " + message;
    return message;
  }
  return std::nullopt;
}

std::optional<FleetConfig> FleetConfig::load(const std::string& path,
                                             std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot read '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), error);
}

std::string to_config_text(const FleetConfig& cfg) {
  using cfgparse::format_double;
  std::string out;
  auto line = [&out](std::string_view key, const std::string& value) {
    out.append(key).append(" = ").append(value) += '\n';
  };
  line("residences", std::to_string(cfg.residences));
  line("days", std::to_string(cfg.days));
  line("seed", std::to_string(cfg.seed));
  line("dual_stack_isp_frac", format_double(cfg.dual_stack_isp_frac));
  line("broken_v6_frac", format_double(cfg.broken_v6_frac));
  line("heavy_streamer_frac", format_double(cfg.heavy_streamer_frac));
  line("background_only_frac", format_double(cfg.background_only_frac));
  line("opt_out_frac", format_double(cfg.opt_out_frac));
  line("absence_prob", format_double(cfg.absence_prob));
  line("activity_scale_min", format_double(cfg.activity_scale_min));
  line("activity_scale_max", format_double(cfg.activity_scale_max));
  line("arrival.mode", traffic::to_string(cfg.arrival->mode));
  line("arrival.ticks_per_hour", std::to_string(cfg.arrival->ticks_per_hour));
  for (const auto& ev : cfg.timeline->events)
    line(std::string("timeline.") + to_string(ev.kind),
         Timeline::render_event(ev));
  return out;
}

std::optional<std::string> check_parse_round_trip(std::string_view text) {
  std::string error;
  auto cfg = FleetConfig::parse(text, &error);
  if (!cfg) return "initial parse failed: " + error;

  const std::string rendered = to_config_text(*cfg);
  auto cfg2 = FleetConfig::parse(rendered, &error);
  if (!cfg2)
    return "rendered text failed to reparse: " + error +
           "\nrendered:\n" + rendered;
  if (!(*cfg == *cfg2))
    return "config changed across render/reparse\nrendered:\n" + rendered;
  // Render must be a fixed point: a second pass through the renderer that
  // changed a byte would mean non-canonical float formatting.
  if (to_config_text(*cfg2) != rendered)
    return "renderer is not a fixed point\nrendered:\n" + rendered;
  return std::nullopt;
}

}  // namespace nbv6::engine
