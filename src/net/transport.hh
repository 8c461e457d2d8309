/**
 * @file
 * Transport: the message channel between a campaign coordinator and one
 * worker.
 *
 * Every worker talks to its coordinator over one stream socket: a local
 * `--workers` subprocess over its end of a Unix socketpair (on its fd
 * 0), a remote `--worker-connect` worker over TCP. Both directions of
 * both kinds carry the same CRC-framed payloads:
 * "<decimal length> <8-hex crc32>\n<payload>\n". The CRC means a bit
 * flip on the wire is detected at the transport layer (next() returns a
 * desync, which maps to the coordinator's kill/requeue path) instead of
 * surfacing as a JSON parse error deep in result handling.
 *
 * Threading: send() is serialized by an internal mutex — the worker's
 * dedicated heartbeat thread writes concurrently with the job loop.
 * pump()/next() are single-consumer: only the owning event loop reads.
 */

#ifndef MONDRIAN_NET_TRANSPORT_HH
#define MONDRIAN_NET_TRANSPORT_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "net/socket.hh"

namespace mondrian {

/** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of @p data. */
std::uint32_t crc32(const void *data, std::size_t size);

/**
 * Encode one payload as a frame:
 * with CRC, "<decimal length> <8-hex crc32>\n<payload>\n" (the channel
 * format); without CRC, "<decimal length>\n<payload>\n" (kept for the
 * codec-cost comparison in the benchmark driver).
 */
std::string encodeFrame(const std::string &payload, bool with_crc);

/**
 * Extract the next complete frame from @p buf, consuming it.
 * @return 1 on a frame (payload out), 0 when more bytes are needed, -1
 * on a framing violation — unparseable header, nonsense length,
 * missing trailer, or (with @p with_crc) a CRC mismatch. -1 means the
 * stream is no longer trustworthy: the caller must drop the channel.
 */
int decodeFrame(std::string &buf, std::string &payload, bool with_crc);

/** One coordinator-worker channel: CRC frames over one socket. */
class Transport
{
  public:
    /** pump() outcome. */
    enum class Pump
    {
        kData, ///< bytes were appended to the reassembly buffer
        kIdle, ///< nothing available right now (non-blocking fd only)
        kEof,  ///< peer closed the channel in an orderly way
        kError ///< read error: channel dead
    };

    explicit Transport(Socket socket) : socket_(std::move(socket)) {}

    /**
     * Send one protocol message (thread-safe).
     * @return false when the peer is gone or the write fails.
     */
    bool send(const std::string &payload);

    /** Read available bytes from the socket into the reassembly buffer.
     *  A blocking socket blocks until data/EOF; a non-blocking one
     *  drains until EAGAIN and reports kIdle when nothing was pending. */
    Pump pump();

    /**
     * Extract the next complete inbound message from the reassembly
     * buffer. @return 1 with the message in @p payload, 0 when more
     * bytes are needed (pump() again), -1 on a framing violation or CRC
     * mismatch (drop the channel).
     */
    int next(std::string &payload);

    /**
     * Block until one complete message arrives (pump() + next() on a
     * blocking socket). @return false on EOF, a read error or a framing
     * violation — to a worker all three mean "the coordinator is gone".
     */
    bool await(std::string &payload);

    /** poll()able fd of the socket. */
    int fd() const { return socket_.fd(); }

    /**
     * Half-close the send direction only: the peer sees EOF on its read
     * side while our receive side stays open. This is how the
     * coordinator's shutdown works — after the exit message the command
     * direction closes, but replies stay readable until the worker is
     * reaped.
     */
    void shutdownSend();

    /** Close both directions (idempotent). */
    void close();

  private:
    Socket socket_;
    std::string buf_;
    std::mutex send_mutex_;
};

} // namespace mondrian

#endif // MONDRIAN_NET_TRANSPORT_HH
