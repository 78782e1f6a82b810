#include "ipc/telemetry_xrl.hpp"

#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"

namespace xrp::ipc {

using xrl::XrlArgs;
using xrl::XrlError;

void bind_telemetry_xrls(XrlDispatcher& d) {
    if (d.has_method("telemetry/1.0/snapshot")) return;
    d.add_interface(*xrl::InterfaceSpec::parse(kTelemetryIdl));

    d.add_handler("telemetry/1.0/list_metrics",
                  [](const XrlArgs&, XrlArgs& out) {
                      std::string names;
                      for (const std::string& n :
                           telemetry::Registry::global().names()) {
                          names += n;
                          names += '\n';
                      }
                      out.add("names", std::move(names));
                      return XrlError::okay();
                  });
    d.add_handler("telemetry/1.0/get_metric",
                  [](const XrlArgs& in, XrlArgs& out) {
                      std::string text = telemetry::Registry::global()
                                             .expose_one(*in.get_text("name"));
                      out.add("found", !text.empty());
                      out.add("text", std::move(text));
                      return XrlError::okay();
                  });
    d.add_handler("telemetry/1.0/snapshot",
                  [](const XrlArgs&, XrlArgs& out) {
                      out.add("text", telemetry::Registry::global().expose());
                      return XrlError::okay();
                  });
    d.add_handler("telemetry/1.0/metrics_enable",
                  [](const XrlArgs& in, XrlArgs& out) {
                      telemetry::set_enabled(*in.get_bool("on"));
                      out.add("enabled", telemetry::enabled());
                      return XrlError::okay();
                  });
    d.add_handler("telemetry/1.0/trace_enable",
                  [](const XrlArgs& in, XrlArgs& out) {
                      telemetry::set_tracing_enabled(*in.get_bool("on"));
                      out.add("enabled", telemetry::tracing_enabled());
                      return XrlError::okay();
                  });
    d.add_handler("telemetry/1.0/journal_enable",
                  [](const XrlArgs& in, XrlArgs& out) {
                      telemetry::Journal::global().set_enabled(
                          *in.get_bool("on"));
                      out.add("enabled", telemetry::journal_enabled());
                      return XrlError::okay();
                  });
    d.add_handler("telemetry/1.0/journal_dump_json",
                  [](const XrlArgs&, XrlArgs& out) {
                      auto& j = telemetry::Journal::global();
                      out.add("count", static_cast<uint32_t>(j.event_count()));
                      out.add("dropped", static_cast<uint32_t>(j.dropped()));
                      out.add("text", j.to_jsonl());
                      return XrlError::okay();
                  });
    d.add_handler("telemetry/1.0/journal_clear",
                  [](const XrlArgs&, XrlArgs& out) {
                      telemetry::Journal::global().clear();
                      out.add("ok", true);
                      return XrlError::okay();
                  });
}

}  // namespace xrp::ipc
