#include "hypervisor/guest.h"

#include <cstdio>

#include "util/random.h"
#include "util/strings.h"

namespace vmp::hv {

using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

/// Encode a value so it survives line-oriented storage.
std::string encode(const std::string& raw) {
  std::string out;
  for (char c : raw) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\\': out += "\\\\"; break;
      default: out += c;
    }
  }
  return out;
}

std::string decode(const std::string& enc) {
  std::string out;
  for (std::size_t i = 0; i < enc.size(); ++i) {
    if (enc[i] == '\\' && i + 1 < enc.size()) {
      ++i;
      switch (enc[i]) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case '\\': out += '\\'; break;
        default: out += enc[i];
      }
    } else {
      out += enc[i];
    }
  }
  return out;
}

}  // namespace

std::string render_guest_state(const GuestState& state) {
  std::string out;
  out += "os\t" + encode(state.os) + "\n";
  out += "hostname\t" + encode(state.hostname) + "\n";
  out += "ip\t" + encode(state.ip) + "\n";
  out += "mac\t" + encode(state.mac) + "\n";
  for (const auto& p : state.packages) out += "package\t" + encode(p) + "\n";
  for (const auto& [name, home] : state.users) {
    out += "user\t" + encode(name) + "\t" + encode(home) + "\n";
  }
  for (const auto& [mountpoint, source] : state.mounts) {
    out += "mount\t" + encode(mountpoint) + "\t" + encode(source) + "\n";
  }
  for (const auto& s : state.running_services) {
    out += "service\t" + encode(s) + "\n";
  }
  for (const auto& [path, content] : state.files) {
    out += "file\t" + encode(path) + "\t" + encode(content) + "\n";
  }
  return out;
}

Result<GuestState> parse_guest_state(const std::string& text) {
  GuestState state;
  for (const std::string& line : util::split(text, '\n')) {
    if (util::trim(line).empty()) continue;
    const auto fields = util::split(line, '\t');
    const std::string& tag = fields[0];
    auto field = [&](std::size_t i) {
      return i < fields.size() ? decode(fields[i]) : std::string();
    };
    if (tag == "os") state.os = field(1);
    else if (tag == "hostname") state.hostname = field(1);
    else if (tag == "ip") state.ip = field(1);
    else if (tag == "mac") state.mac = field(1);
    else if (tag == "package") state.packages.insert(field(1));
    else if (tag == "user") state.users[field(1)] = field(2);
    else if (tag == "mount") state.mounts[field(1)] = field(2);
    else if (tag == "service") state.running_services.insert(field(1));
    else if (tag == "file") state.files[field(1)] = field(2);
    else {
      return Result<GuestState>(
          Error(ErrorCode::kParseError, "guest state: unknown tag " + tag));
    }
  }
  return state;
}

// ---------------------------------------------------------------------------
// GuestAgent
// ---------------------------------------------------------------------------

namespace {

/// Split "cmd arg1 rest of line" into words; the final argument of
/// commands that accept free text is re-joined by the caller.
std::vector<std::string> words(const std::string& line) {
  std::vector<std::string> out;
  std::string current;
  for (char c : line) {
    if (c == ' ' || c == '\t') {
      if (!current.empty()) {
        out.push_back(current);
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

std::string rest_after(const std::string& line, std::size_t n_words) {
  // Returns the raw text after the first n_words tokens.
  std::size_t pos = 0;
  std::size_t seen = 0;
  while (pos < line.size() && seen < n_words) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
    ++seen;
  }
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  return line.substr(pos);
}

}  // namespace

GuestOutput GuestAgent::execute(GuestState* state,
                                const std::string& script) const {
  GuestOutput result;
  auto fail = [&](const std::string& message) {
    result.success = false;
    result.failure_message = message;
    result.log.push_back("FAIL: " + message);
  };

  for (const std::string& raw_line : util::split(script, '\n')) {
    const std::string line(util::trim(raw_line));
    if (line.empty() || line[0] == '#') continue;
    const auto argv = words(line);
    const std::string& cmd = argv[0];
    ++result.commands_run;
    result.log.push_back(line);

    if (cmd == "installos") {
      if (argv.size() < 2) { fail("installos: missing distro"); break; }
      state->os = argv[1];
    } else if (cmd == "install") {
      if (argv.size() < 2) { fail("install: missing package"); break; }
      state->packages.insert(argv[1]);
    } else if (cmd == "remove") {
      if (argv.size() < 2) { fail("remove: missing package"); break; }
      state->packages.erase(argv[1]);
      state->running_services.erase(argv[1]);
    } else if (cmd == "require") {
      if (argv.size() < 2) { fail("require: missing package"); break; }
      if (!state->packages.count(argv[1])) {
        fail("require: package not installed: " + argv[1]);
        break;
      }
    } else if (cmd == "adduser") {
      if (argv.size() < 2) { fail("adduser: missing name"); break; }
      if (state->users.count(argv[1])) {
        fail("adduser: user exists: " + argv[1]);
        break;
      }
      state->users[argv[1]] =
          argv.size() > 2 ? argv[2] : "/home/" + argv[1];
    } else if (cmd == "deluser") {
      if (argv.size() < 2) { fail("deluser: missing name"); break; }
      if (state->users.erase(argv[1]) == 0) {
        fail("deluser: no such user: " + argv[1]);
        break;
      }
    } else if (cmd == "ifconfig") {
      if (argv.size() < 2) { fail("ifconfig: missing ip"); break; }
      state->ip = argv[1];
      if (argv.size() > 2) state->mac = argv[2];
    } else if (cmd == "hostname") {
      if (argv.size() < 2) { fail("hostname: missing name"); break; }
      state->hostname = argv[1];
    } else if (cmd == "mount") {
      if (argv.size() < 3) { fail("mount: need source and mountpoint"); break; }
      if (state->mounts.count(argv[2])) {
        fail("mount: mountpoint busy: " + argv[2]);
        break;
      }
      state->mounts[argv[2]] = argv[1];
    } else if (cmd == "umount") {
      if (argv.size() < 2) { fail("umount: missing mountpoint"); break; }
      if (state->mounts.erase(argv[1]) == 0) {
        fail("umount: not mounted: " + argv[1]);
        break;
      }
    } else if (cmd == "start") {
      if (argv.size() < 2) { fail("start: missing service"); break; }
      if (!state->packages.count(argv[1])) {
        fail("start: service not installed: " + argv[1]);
        break;
      }
      state->running_services.insert(argv[1]);
    } else if (cmd == "stop") {
      if (argv.size() < 2) { fail("stop: missing service"); break; }
      state->running_services.erase(argv[1]);
    } else if (cmd == "writefile") {
      if (argv.size() < 2) { fail("writefile: missing path"); break; }
      state->files[argv[1]] = rest_after(line, 2);
    } else if (cmd == "output") {
      if (argv.size() < 3) { fail("output: need key and value"); break; }
      result.outputs[argv[1]] = rest_after(line, 2);
    } else if (cmd == "sshkeygen") {
      if (argv.size() < 2) { fail("sshkeygen: missing user"); break; }
      if (!state->users.count(argv[1])) {
        fail("sshkeygen: no such user: " + argv[1]);
        break;
      }
      // Deterministic "fingerprint" derived from the guest identity, so
      // clones configured for different users/hosts get distinct keys.
      const std::uint64_t digest = util::derive_seed(
          0x55a9, argv[1] + "@" + state->hostname + "/" + state->ip);
      char fingerprint[32];
      std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                    static_cast<unsigned long long>(digest));
      const std::string home = state->users.at(argv[1]);
      state->files[home + "/.ssh/id_rsa.pub"] =
          "ssh-rsa " + std::string(fingerprint) + " " + argv[1];
      result.outputs["SSHKey_" + argv[1]] = fingerprint;
    } else if (cmd == "gridcert") {
      if (argv.size() < 3) { fail("gridcert: need user and subject"); break; }
      if (!state->users.count(argv[1])) {
        fail("gridcert: no such user: " + argv[1]);
        break;
      }
      const std::string subject = rest_after(line, 2);
      state->files["/etc/grid-security/" + argv[1] + ".pem"] =
          "SUBJECT=" + subject;
      result.outputs["GSISubject_" + argv[1]] = subject;
    } else {
      fail("unknown command: " + cmd);
      break;
    }
  }
  return result;
}

}  // namespace vmp::hv
