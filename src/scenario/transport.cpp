#include "scenario/transport.h"

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/checkpoint_ring.h"
#include "util/hash.h"

namespace ulpsync::scenario {

namespace fs = std::filesystem;

namespace {

/// Atomic claim: true when this caller renamed the file (and therefore
/// owns it); false when another worker got there first.
bool try_rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  return !ec;
}

/// The payload extensions a spool can hold: sweep bundles and campaign
/// fault ranges share the claim lifecycle.
const std::string kClaimExtensions[2] = {
    "." + payload_extension(SpoolKind::kSweep),
    "." + payload_extension(SpoolKind::kCampaign)};

/// Sorted queue/claimed entries with a claimable extension.
std::vector<std::string> claimable_entries(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string ext = it->path().extension().string();
    for (const std::string& claimable : kClaimExtensions) {
      if (ext == claimable) names.push_back(it->path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// "shard-0007.bundle" -> 7.
unsigned id_of_entry(const std::string& name) {
  return static_cast<unsigned>(std::strtoul(name.c_str() + 6, nullptr, 10));
}

/// The text up to and including its last newline: a part file without
/// the torn trailing row a killed worker may have left.
std::string complete_prefix(const std::string& text) {
  return text.substr(0, text.rfind('\n') + 1);
}

/// Writes all of `text` to a socket; false when the peer is gone.
bool send_text(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Appends the next chunk a socket delivers to `buffer`; false on close.
bool receive_into(int fd, std::string& buffer) {
  char chunk[4096];
  const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer.append(chunk, static_cast<std::size_t>(n));
  return true;
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

/// Locale-free fixed-point rendering for the JSON/status numbers.
std::string fixed3(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

}  // namespace

// --- filesystem transport ----------------------------------------------------

std::string FsTransport::manifest_text() {
  std::ifstream in(dir_ + "/MANIFEST", std::ios::binary);
  if (!in) {
    throw std::runtime_error("no spool manifest in " + dir_ +
                             " (run `sweep_shard plan` first?)");
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<std::uint8_t> FsTransport::fetch_blob(const std::string& name) {
  if (name == "campaign.bin") return read_file_bytes(dir_ + "/campaign.bin");
  if (name.rfind("shard-", 0) == 0 && name.find('/') == std::string::npos) {
    // The shard's bundle, wherever it currently lives in the claim
    // lifecycle.
    for (const char* sub : {"/done/", "/claimed/", "/queue/"}) {
      const std::string path = dir_ + sub + name;
      if (fs::exists(path)) return read_file_bytes(path);
    }
    throw std::runtime_error("shard payload " + name + " is missing from " +
                             dir_);
  }
  throw std::runtime_error("unknown spool artifact '" + name + "'");
}

std::optional<ClaimedShard> FsTransport::claim(const std::string& worker_id) {
  for (const std::string& name : claimable_entries(dir_ + "/queue")) {
    if (!try_rename(dir_ + "/queue/" + name, dir_ + "/claimed/" + name)) {
      continue;  // another worker got there first; try the next bundle
    }
    ClaimedShard claimed;
    claimed.id = id_of_entry(name);
    const std::string ext = fs::path(name).extension().string();
    claimed.kind = ext.substr(1);
    const std::string stem = name.substr(0, name.size() - ext.size());
    write_text_atomic(dir_ + "/claimed/" + stem + ".owner", worker_id + "\n");
    claimed.payload = read_file_bytes(dir_ + "/claimed/" + name);
    const std::string partial_path =
        dir_ + "/parts/" + part_name(claimed.id) + ".partial";
    const std::string partial = read_text_file(partial_path);
    const std::string adopted = complete_prefix(partial);
    claimed.rows = split_complete_lines(adopted);
    // A killed worker may have left a torn trailing row in the partial;
    // truncate back to the adopted complete lines so fresh appends never
    // concatenate onto the fragment.
    if (adopted != partial) {
      if (adopted.empty()) {
        std::error_code ec;
        fs::remove(partial_path, ec);
      } else {
        write_text_atomic(partial_path, adopted);
      }
    }
    return claimed;
  }
  return std::nullopt;  // queue drained (or raced dry)
}

void FsTransport::heartbeat(unsigned id) {
  (void)id;  // rename-claimed shards have no lease to keep alive
}

void FsTransport::append_row(unsigned id, const std::string& row) {
  const std::string partial = dir_ + "/parts/" + part_name(id) + ".partial";
  std::ofstream out(partial, std::ios::binary | std::ios::app);
  out << row << '\n' << std::flush;
  if (!out) throw std::runtime_error("cannot append to " + partial);
}

void FsTransport::append_cost(unsigned id, const std::string& line) {
  // Cost feedback is advisory: losing it degrades the next plan to the
  // uniform split, so I/O failures here are deliberately not fatal.
  std::error_code ec;
  fs::create_directories(dir_ + "/costs", ec);
  std::ofstream out(dir_ + "/costs/" + part_name(id) + ".cost",
                    std::ios::binary | std::ios::app);
  out << line << '\n' << std::flush;
}

void FsTransport::complete(unsigned id, std::uint64_t part_hash) {
  const std::string partial = dir_ + "/parts/" + part_name(id) + ".partial";
  const std::string part_text = complete_prefix(read_text_file(partial));
  if (util::fnv1a64(part_text) != part_hash) {
    throw std::runtime_error("part of shard " + std::to_string(id) +
                             " failed its content hash (truncated upload?)");
  }
  write_text_atomic(dir_ + "/parts/" + part_name(id) + ".csv", part_text);
  std::error_code ec;
  fs::remove(partial, ec);
  release_claim(id);  // the part is final: the payload moves to done/
}

std::size_t FsTransport::adopt_orphans() {
  std::size_t requeued = 0;
  for (const std::string& name : claimable_entries(dir_ + "/claimed")) {
    if (release_claim(id_of_entry(name))) requeued += 1;
  }
  return requeued;
}

bool FsTransport::release_claim(unsigned id) {
  // With a final part the payload belongs in done/ (this also finishes the
  // move of a worker killed between its two renames). Otherwise it goes
  // back to the queue, its partial rows kept for the next claimer, so a
  // vanished worker costs at most the block in flight.
  const bool finished =
      fs::exists(dir_ + "/parts/" + part_name(id) + ".csv");
  const std::string stem = shard_name(id);
  bool requeued = false;
  for (const std::string& ext : kClaimExtensions) {
    const std::string claimed = dir_ + "/claimed/" + stem + ext;
    if (!fs::exists(claimed)) continue;
    const std::string to = dir_ + (finished ? "/done/" : "/queue/") + stem + ext;
    requeued = try_rename(claimed, to) && !finished;
  }
  std::error_code ec;
  fs::remove(dir_ + "/claimed/" + stem + ".owner", ec);
  return requeued;
}

std::string FsTransport::part_text(unsigned id) {
  const std::string part = dir_ + "/parts/" + part_name(id) + ".csv";
  if (!fs::exists(part)) {
    throw std::runtime_error("cannot merge: part of shard " +
                             std::to_string(id) + " is not finished (" + part +
                             " missing)");
  }
  return read_text_file(part);
}

TransportStatus FsTransport::status() {
  TransportStatus status;
  status.spool = spool_status(dir_);
  status.campaign = status.spool.kind == SpoolKind::kCampaign;
  for (const ShardState& shard : status.spool.shards) {
    status.rows_done += shard.part_final ? shard.specs : shard.partial_rows;
    if (shard.state == "queued") status.queue_depth += 1;
  }
  return status;
}

// --- status rendering --------------------------------------------------------

std::string status_json(const TransportStatus& status) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"kind\": \"" << (status.campaign ? "campaign" : "sweep")
      << "\",\n";
  out << "  \"fingerprint\": \"" << util::hex64(status.spool.fingerprint)
      << "\",\n";
  out << "  \"" << (status.campaign ? "faults" : "specs")
      << "\": " << status.spool.specs << ",\n";
  out << "  \"rows_done\": " << status.rows_done << ",\n";
  out << "  \"queue_depth\": " << status.queue_depth << ",\n";
  out << "  \"complete\": " << (status.spool.complete() ? "true" : "false")
      << ",\n";
  out << "  \"eta_seconds\": ";
  if (status.eta_seconds >= 0.0) {
    out << fixed3(status.eta_seconds);
  } else {
    out << "null";
  }
  out << ",\n";
  out << "  \"shards\": [\n";
  for (std::size_t i = 0; i < status.spool.shards.size(); ++i) {
    const ShardState& shard = status.spool.shards[i];
    out << "    {\"id\": " << shard.id << ", \"specs\": " << shard.specs
        << ", \"state\": \"" << json_escape(shard.state)
        << "\", \"part_final\": " << (shard.part_final ? "true" : "false")
        << ", \"partial_rows\": " << shard.partial_rows << ", \"owner\": \""
        << json_escape(shard.owner) << "\"}"
        << (i + 1 < status.spool.shards.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"workers\": [\n";
  for (std::size_t i = 0; i < status.workers.size(); ++i) {
    const WorkerRate& worker = status.workers[i];
    out << "    {\"worker\": \"" << json_escape(worker.worker)
        << "\", \"rows\": " << worker.rows << ", \"rows_per_second\": "
        << fixed3(worker.rows_per_second) << "}"
        << (i + 1 < status.workers.size() ? "," : "") << '\n';
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::string serialize_transport_status(const TransportStatus& status) {
  std::ostringstream out;
  out << "ulpsync-status v1\n";
  out << "campaign " << (status.campaign ? 1 : 0) << '\n';
  out << "fingerprint " << util::hex64(status.spool.fingerprint) << '\n';
  out << "specs " << status.spool.specs << '\n';
  out << "rows_done " << status.rows_done << '\n';
  out << "queue_depth " << status.queue_depth << '\n';
  char eta[64];
  std::snprintf(eta, sizeof(eta), "%.6f", status.eta_seconds);
  out << "eta " << eta << '\n';
  for (const ShardState& shard : status.spool.shards) {
    out << "shard " << shard.id << ' ' << shard.specs << ' '
        << (shard.part_final ? 1 : 0) << ' ' << shard.partial_rows << ' '
        << shard.state << ' ' << shard.owner << '\n';
  }
  for (const WorkerRate& worker : status.workers) {
    char rate[64];
    std::snprintf(rate, sizeof(rate), "%.6f", worker.rows_per_second);
    out << "worker " << worker.rows << ' ' << rate << ' ' << worker.worker
        << '\n';
  }
  return out.str();
}

TransportStatus parse_transport_status(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "ulpsync-status v1") {
    throw std::runtime_error("malformed status reply");
  }
  TransportStatus status;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "campaign") {
      int value = 0;
      fields >> value;
      status.campaign = value != 0;
      status.spool.kind = value != 0 ? SpoolKind::kCampaign : SpoolKind::kSweep;
    } else if (tag == "fingerprint") {
      std::string hex;
      fields >> hex;
      status.spool.fingerprint = std::strtoull(hex.c_str(), nullptr, 16);
    } else if (tag == "specs") {
      fields >> status.spool.specs;
    } else if (tag == "rows_done") {
      fields >> status.rows_done;
    } else if (tag == "queue_depth") {
      fields >> status.queue_depth;
    } else if (tag == "eta") {
      fields >> status.eta_seconds;
    } else if (tag == "shard") {
      ShardState shard;
      int part_final = 0;
      fields >> shard.id >> shard.specs >> part_final >> shard.partial_rows >>
          shard.state;
      shard.part_final = part_final != 0;
      std::getline(fields, shard.owner);
      if (!shard.owner.empty() && shard.owner.front() == ' ') {
        shard.owner.erase(0, 1);
      }
      status.spool.shards.push_back(std::move(shard));
    } else if (tag == "worker") {
      WorkerRate worker;
      fields >> worker.rows >> worker.rows_per_second;
      std::getline(fields, worker.worker);
      if (!worker.worker.empty() && worker.worker.front() == ' ') {
        worker.worker.erase(0, 1);
      }
      status.workers.push_back(std::move(worker));
    } else if (!tag.empty()) {
      throw std::runtime_error("malformed status reply line: " + line);
    }
  }
  return status;
}

// --- TCP client --------------------------------------------------------------

TcpEndpoint parse_endpoint(const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    throw std::runtime_error("malformed endpoint '" + endpoint +
                             "' (expected host:port)");
  }
  TcpEndpoint parsed;
  parsed.host = endpoint.substr(0, colon);
  char* end = nullptr;
  const long port = std::strtol(endpoint.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port <= 0 || port > 65535) {
    throw std::runtime_error("malformed endpoint '" + endpoint +
                             "' (expected host:port)");
  }
  parsed.port = static_cast<int>(port);
  return parsed;
}

TcpTransport::TcpTransport(const std::string& host, int port) {
  describe_ = host + ":" + std::to_string(port);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &found);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve " + describe_ + ": " +
                             ::gai_strerror(rc));
  }
  for (const addrinfo* entry = found; entry; entry = entry->ai_next) {
    const int fd =
        ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) {
      fd_ = fd;
      break;
    }
    ::close(fd);
  }
  ::freeaddrinfo(found);
  if (fd_ < 0) {
    throw std::runtime_error("cannot connect to " + describe_);
  }
}

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

std::string TcpTransport::read_line() {
  std::size_t newline;
  while ((newline = buffer_.find('\n')) == std::string::npos) receive();
  std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  return line;
}

std::string TcpTransport::read_bytes(std::size_t count) {
  while (buffer_.size() < count) receive();
  std::string bytes = buffer_.substr(0, count);
  buffer_.erase(0, count);
  return bytes;
}

void TcpTransport::receive() {
  if (!receive_into(fd_, buffer_)) {
    throw std::runtime_error("connection to " + describe_ + " closed");
  }
}

std::string TcpTransport::request(const std::string& line) {
  if (!send_text(fd_, line + "\n")) {
    throw std::runtime_error("connection to " + describe_ + " broke");
  }
  const std::string reply = read_line();
  if (reply.rfind("ERR ", 0) == 0) {
    throw std::runtime_error(reply.substr(4));
  }
  return reply;
}

std::string TcpTransport::request_payload(const std::string& line) {
  const std::string reply = request(line);
  std::size_t length = 0;
  if (std::sscanf(reply.c_str(), "OK %zu", &length) != 1) {
    throw std::runtime_error("malformed " + line.substr(0, line.find(' ')) +
                             " reply from " + describe_);
  }
  return read_bytes(length);
}

std::string TcpTransport::manifest_text() {
  return request_payload("MANIFEST");
}

std::vector<std::uint8_t> TcpTransport::fetch_blob(const std::string& name) {
  const std::string bytes = request_payload("BLOB " + name);
  return {bytes.begin(), bytes.end()};
}

std::optional<ClaimedShard> TcpTransport::claim(const std::string& worker_id) {
  const std::string reply = request("CLAIM " + worker_id);
  if (reply == "NONE") return std::nullopt;
  ClaimedShard claimed;
  char kind[32] = {0};
  std::size_t payload_length = 0;
  std::size_t rows_length = 0;
  if (std::sscanf(reply.c_str(), "OK %u %31s %zu %zu", &claimed.id, kind,
                  &payload_length, &rows_length) != 4) {
    throw std::runtime_error("malformed CLAIM reply from " + describe_);
  }
  claimed.kind = kind;
  const std::string payload = read_bytes(payload_length);
  claimed.payload.assign(payload.begin(), payload.end());
  claimed.rows = split_complete_lines(read_bytes(rows_length));
  return claimed;
}

void TcpTransport::heartbeat(unsigned id) {
  request("BEAT " + std::to_string(id));
}

void TcpTransport::append_row(unsigned id, const std::string& row) {
  // The per-row hash rejects a row truncated or mangled in flight before
  // it can reach the partial part.
  request("ROW " + std::to_string(id) + " " +
          util::hex64(util::fnv1a64(row)) + " " + row);
}

void TcpTransport::append_cost(unsigned id, const std::string& line) {
  request("COST " + std::to_string(id) + " " + line);
}

void TcpTransport::complete(unsigned id, std::uint64_t part_hash) {
  request("DONE " + std::to_string(id) + " " + util::hex64(part_hash));
}

std::size_t TcpTransport::adopt_orphans() {
  const std::string reply = request("ADOPT");
  std::size_t requeued = 0;
  if (std::sscanf(reply.c_str(), "OK %zu", &requeued) != 1) {
    throw std::runtime_error("malformed ADOPT reply from " + describe_);
  }
  return requeued;
}

std::string TcpTransport::part_text(unsigned id) {
  return request_payload("FINAL " + std::to_string(id));
}

TransportStatus TcpTransport::status() {
  return parse_transport_status(request_payload("STATUS"));
}

// --- coordinator -------------------------------------------------------------

SpoolServer::SpoolServer(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options), fs_(dir_) {}

SpoolServer::~SpoolServer() { stop(); }

void SpoolServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("cannot create server socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot bind port " +
                             std::to_string(options_.port));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ =
      std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

void SpoolServer::stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
  stopping_ = true;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<int> fds;
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fds = conn_fds_;
    threads = std::move(conn_threads_);
  }
  for (const int fd : fds) ::shutdown(fd, SHUT_RDWR);
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

void SpoolServer::accept_loop(int listen_fd) {
  while (!stopping_) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_) break;
      continue;  // transient accept failure (EINTR)
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void SpoolServer::serve_connection(int fd) {
  std::string buffer;
  for (;;) {
    // Frame one request line.
    std::size_t newline;
    while ((newline = buffer.find('\n')) == std::string::npos) {
      if (!receive_into(fd, buffer)) break;
    }
    if (newline == std::string::npos) break;  // the peer hung up
    const std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);

    std::string payload;
    std::string reply;
    try {
      reply = handle(fd, line, payload);
    } catch (const std::exception& error) {
      reply = std::string("ERR ") + error.what();
      payload.clear();
    }
    if (!send_text(fd, reply + "\n" + payload)) break;
  }
  release_connection(fd);
  ::close(fd);
}

std::string SpoolServer::handle(int fd, const std::string& line,
                                std::string& payload) {
  std::istringstream fields(line);
  std::string verb;
  fields >> verb;
  const auto rest_of_line = [&fields]() {
    std::string rest;
    std::getline(fields, rest);
    if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
    return rest;
  };
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);

  if (verb == "MANIFEST") {
    payload = fs_.manifest_text();
    return "OK " + std::to_string(payload.size());
  }
  if (verb == "BLOB") {
    std::string name;
    fields >> name;
    const std::vector<std::uint8_t> bytes = fs_.fetch_blob(name);
    payload.assign(bytes.begin(), bytes.end());
    return "OK " + std::to_string(payload.size());
  }
  if (verb == "CLAIM") {
    std::string worker = rest_of_line();
    if (worker.empty()) worker = "anonymous";
    requeue_expired_locked();
    const auto claimed = fs_.claim(worker);
    if (!claimed) return "NONE";
    leases_[claimed->id] = Lease{worker, fd, now};
    std::string rows_text;
    for (const std::string& row : claimed->rows) rows_text += row + '\n';
    payload.assign(claimed->payload.begin(), claimed->payload.end());
    payload += rows_text;
    return "OK " + std::to_string(claimed->id) + " " + claimed->kind + " " +
           std::to_string(claimed->payload.size()) + " " +
           std::to_string(rows_text.size());
  }
  if (verb == "ROW" || verb == "COST" || verb == "BEAT" || verb == "DONE") {
    unsigned id = 0;
    fields >> id;
    const auto lease = leases_.find(id);
    if (lease == leases_.end() || lease->second.conn_fd != fd) {
      // A vanished worker's lease was re-queued (and possibly re-claimed);
      // rejecting the zombie keeps a single writer per partial part.
      throw std::runtime_error("shard " + std::to_string(id) +
                               " is not leased by this connection");
    }
    lease->second.last_activity = now;
    if (verb == "BEAT") return "OK";
    if (verb == "ROW") {
      std::string hex;
      fields >> hex;
      const std::string row = rest_of_line();
      if (util::fnv1a64(row) != std::strtoull(hex.c_str(), nullptr, 16)) {
        throw std::runtime_error("row for shard " + std::to_string(id) +
                                 " failed its content hash");
      }
      fs_.append_row(id, row);
      WorkerStats& stats = stats_[lease->second.worker];
      if (stats.rows == 0) stats.first_row = now;
      stats.rows += 1;
      stats.last_row = now;
      return "OK";
    }
    if (verb == "COST") {
      fs_.append_cost(id, rest_of_line());
      return "OK";
    }
    // DONE: the hash check inside complete() keeps the claim open on a
    // truncated upload — the worker sees the ERR and can retry or die
    // without the part ever finalizing short.
    std::string hex;
    fields >> hex;
    fs_.complete(id, std::strtoull(hex.c_str(), nullptr, 16));
    leases_.erase(id);
    return "OK";
  }
  if (verb == "ADOPT") {
    requeue_expired_locked();
    // Orphans: claimed shards no live lease covers (a previous server
    // run, or a worker that died while we were not looking).
    std::size_t requeued = 0;
    for (const std::string& name : claimable_entries(dir_ + "/claimed")) {
      const unsigned id = id_of_entry(name);
      if (leases_.count(id) != 0) continue;
      requeue_locked(id);
      requeued += 1;
    }
    return "OK " + std::to_string(requeued);
  }
  if (verb == "STATUS") {
    payload = serialize_transport_status(status_locked());
    return "OK " + std::to_string(payload.size());
  }
  if (verb == "FINAL") {
    unsigned id = 0;
    fields >> id;
    payload = fs_.part_text(id);
    return "OK " + std::to_string(payload.size());
  }
  throw std::runtime_error("unknown request '" + verb + "'");
}

void SpoolServer::requeue_expired_locked() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<unsigned> expired;
  for (const auto& [id, lease] : leases_) {
    const double idle =
        std::chrono::duration<double>(now - lease.last_activity).count();
    if (idle > options_.lease_seconds) expired.push_back(id);
  }
  for (const unsigned id : expired) requeue_locked(id);
}

void SpoolServer::requeue_locked(unsigned id) {
  (void)fs_.release_claim(id);
  leases_.erase(id);
}

void SpoolServer::release_connection(int fd) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<unsigned> held;
  for (const auto& [id, lease] : leases_) {
    if (lease.conn_fd == fd) held.push_back(id);
  }
  for (const unsigned id : held) requeue_locked(id);
  conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                  conn_fds_.end());
}

TransportStatus SpoolServer::status() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return status_locked();
}

TransportStatus SpoolServer::status_locked() {
  TransportStatus status = fs_.status();
  const auto now = std::chrono::steady_clock::now();
  double total_rate = 0.0;
  for (const auto& [worker, stats] : stats_) {
    WorkerRate rate;
    rate.worker = worker;
    rate.rows = stats.rows;
    if (stats.rows >= 2) {
      const double elapsed =
          std::chrono::duration<double>(stats.last_row - stats.first_row)
              .count();
      if (elapsed > 0.0) {
        rate.rows_per_second =
            static_cast<double>(stats.rows - 1) / elapsed;
      }
    }
    // A worker silent for a while no longer contributes to the ETA.
    const double idle =
        std::chrono::duration<double>(now - stats.last_row).count();
    if (idle <= options_.lease_seconds) total_rate += rate.rows_per_second;
    status.workers.push_back(std::move(rate));
  }
  if (total_rate > 0.0 && status.spool.specs >= status.rows_done) {
    status.eta_seconds =
        static_cast<double>(status.spool.specs - status.rows_done) /
        total_rate;
  }
  return status;
}

}  // namespace ulpsync::scenario
