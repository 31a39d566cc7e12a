//===- server/Protocol.h - Analysis-service wire protocol -------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between `bivc --serve SOCKET` and its clients
/// (`bivc --connect`, tests, the serve benchmark).  One request and one
/// response per connection, both length-prefixed frames over a unix-domain
/// stream socket:
///
///   [u32 payload length][payload bytes]
///
/// Request payload:
///
///   [u32 magic "bivQ"][u32 ProtocolVersion][u32 kind]
///   [u64 option bits][u64 deadline ms][source text to end of frame]
///
/// Response payload:
///
///   [u32 magic "bivS"][u32 ProtocolVersion][u32 status]
///   [body text to end of frame]
///
/// The option bits are driver::AnalysisOptions::toBits(), the batch
/// driver's digest bits, so a served report is byte-identical to the
/// one-shot CLI's and shares cache entries with `--batch --cache` runs.  A
/// request with a bit outside them set is answered `bad_request`.  A
/// deadline of 0 means no deadline; otherwise a request still queued when
/// the deadline expires is answered `deadline_exceeded` without being
/// analyzed.
///
/// All integers are host-endian: like the analysis cache file, the socket
/// is a local artifact (same machine, same build), not an interchange
/// format.  A version bump is a hard protocol break -- the server rejects
/// mismatched frames with `bad_request` rather than guessing.
///
/// DESIGN.md section 10 documents the protocol, including the current
/// version constant; tools/check_docs.sh cross-checks the two.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SERVER_PROTOCOL_H
#define BEYONDIV_SERVER_PROTOCOL_H

#include <cstdint>
#include <string>

namespace biv {
namespace server {

/// Bump on any wire-visible change (frame layout, field meaning, status
/// values).  tools/check_docs.sh cross-checks this constant against the
/// value DESIGN.md documents.
inline constexpr uint32_t ProtocolVersion = 1;

inline constexpr uint32_t RequestMagic = 0x62697651u;  // "bivQ"
inline constexpr uint32_t ResponseMagic = 0x62697653u; // "bivS"

/// Frames larger than this are rejected before allocation: a daemon must
/// not be OOM-killable by one malformed length prefix.
inline constexpr uint32_t MaxFrameBytes = 16u << 20;

enum class RequestKind : uint32_t {
  Analyze = 0, ///< run the pipeline over the frame's source text
  Stats = 1,   ///< return the server's merged stats snapshot as JSON
};

enum class Status : uint32_t {
  Ok = 0,
  BadRequest = 1,       ///< malformed frame / wrong magic or version
  AnalysisError = 2,    ///< pipeline diagnostics or an internal error;
                        ///< body carries the messages
  Overloaded = 3,       ///< admission queue full; retry later
  DeadlineExceeded = 4, ///< deadline expired while queued
  ShuttingDown = 5,     ///< server draining; connection refused politely
};

const char *statusName(Status S);

struct Request {
  RequestKind Kind = RequestKind::Analyze;
  uint64_t OptsBits = 0;
  uint64_t DeadlineMs = 0; ///< 0 = no deadline
  std::string Source;

  std::string encode() const;
  /// Returns false on malformed bytes, with \p Error describing the field
  /// that failed (so the server can answer BadRequest with a reason).
  bool decode(const std::string &Payload, std::string &Error);
};

struct Response {
  Status S = Status::Ok;
  std::string Body;

  std::string encode() const;
  bool decode(const std::string &Payload, std::string &Error);
};

/// Blocking frame I/O on a connected socket \p Fd.  Both retry EINTR and
/// treat a cleanly closed peer mid-frame as an error.  readFrame rejects
/// frames over MaxFrameBytes before reading the payload.
bool readFrame(int Fd, std::string &Payload, std::string &Error);
bool writeFrame(int Fd, const std::string &Payload, std::string &Error);

} // namespace server
} // namespace biv

#endif // BEYONDIV_SERVER_PROTOCOL_H
