/**
 * @file
 * Binary snapshot serialization for the full simulated machine state.
 *
 * One Writer/Reader pair serves two consumers (DESIGN.md §11):
 *
 *  1. `System::clone()` — serialize to a memory buffer and deserialize
 *     into a freshly constructed System. This is the warm-start fast
 *     path the sweep benches use to fan rows out of a shared setup
 *     prefix.
 *  2. The on-disk checkpoint format behind `overlaysim checkpoint` /
 *     `restore` — the same byte stream wrapped in a versioned file
 *     header (magic + version + per-section length framing).
 *
 * Each stateful component writes its layout once, as
 * `template <typename Ar> void transfer(Ar &ar)`, defined in its .cc and
 * instantiated there for both archives (OVL_SNAPSHOT_INSTANTIATE). The
 * Writer saves and the Reader restores through the same primitives, all
 * taking references:
 *
 *  - section(tag) / endSection(): a 4-char tagged, length-framed section;
 *  - field(v): one value at its type's width (bool as one byte, enums at
 *    their underlying type, double as its bits, strings length-prefixed,
 *    class types through their own transfer());
 *  - bytes(p, n): n raw bytes;
 *  - size(container, min): the container's element count; restore
 *    bounds it by the payload left at @p min bytes per element, then
 *    empties the container and resizes it to that count;
 *  - fixedCount(configured, what): a count fixed by the configuration;
 *    restore fails naming @p what when the snapshot's differs;
 *  - check(ok, what): restore-side validation, a no-op on save;
 *  - kLoading: true on the Reader only. A component resets or rebuilds
 *    its host-side caches and indexes (MRU pointers, lookup maps) in one
 *    `if constexpr (Ar::kLoading)` block after its fields are read.
 *
 * Saving observes without mutating: a transfer body may assign a member
 * back from a local it encoded (a packed flag byte, a widened int), but
 * on save that is the value the member already held.
 *
 * The format is deliberately dumb: little-endian fixed-width integers,
 * length-prefixed blobs, and tagged length-framed sections. Every read
 * is bounds-checked against both the buffer and the innermost open
 * section; any violation throws SnapshotError instead of invoking UB,
 * so truncated or mangled files fail with a diagnostic, never a crash.
 */

#ifndef OVERLAYSIM_SIM_SNAPSHOT_HH
#define OVERLAYSIM_SIM_SNAPSHOT_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ovl::snapshot
{

/** Thrown on any malformed, truncated or version-mismatched snapshot. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** First 8 bytes of every on-disk snapshot file ("OVLSNAP\n"). */
constexpr std::uint64_t kFileMagic = 0x0A50414E534C564Full;

/** Bump on any incompatible change to the serialized layout. */
constexpr std::uint32_t kFormatVersion = 1;

/**
 * Append-only byte-stream writer: the save side of every transfer().
 * Sections open with a 4-char tag and a length placeholder that
 * endSection() patches, so readers can verify per-section framing
 * without understanding the payload.
 */
class Writer
{
  public:
    static constexpr bool kLoading = false;

    /** Append @p v little-endian at the width of its type. */
    template <typename T>
    void
    field(T &&v)
    {
        using U = std::remove_cvref_t<T>;
        if constexpr (requires(Writer &w) { v.transfer(w); }) {
            v.transfer(*this);
        } else if constexpr (std::is_same_v<U, bool>) {
            buf_.push_back(v ? 1 : 0);
        } else if constexpr (std::is_same_v<U, std::string>) {
            field(std::uint64_t(v.size()));
            bytes(v.data(), v.size());
        } else if constexpr (std::is_enum_v<U>) {
            field(std::underlying_type_t<U>(v));
        } else if constexpr (std::is_same_v<U, double>) {
            field(std::bit_cast<std::uint64_t>(v));
        } else {
            static_assert(std::is_integral_v<U>, "no snapshot encoding");
            std::uint8_t le[sizeof(U)];
            for (unsigned i = 0; i < sizeof(U); ++i)
                le[i] = std::uint8_t(std::make_unsigned_t<U>(v) >> (8 * i));
            bytes(le, sizeof(U));
        }
    }

    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + len);
    }

    template <typename C>
    void
    size(const C &container, std::uint64_t)
    {
        field(std::uint64_t(container.size()));
    }

    template <typename T>
    void
    fixedCount(T configured, std::string_view)
    {
        field(configured);
    }

    template <typename Msg>
    void
    check(bool, const Msg &)
    {
    }

    /** Open a length-framed section tagged with 4 ASCII chars. */
    void
    section(const char tag[4])
    {
        bytes(tag, 4);
        sectionStack_.push_back(buf_.size());
        field(std::uint64_t(0)); // length placeholder, patched below
    }

    void
    endSection()
    {
        std::size_t at = sectionStack_.back();
        sectionStack_.pop_back();
        std::uint64_t len = buf_.size() - at - 8;
        for (unsigned i = 0; i < 8; ++i)
            buf_[at + i] = std::uint8_t(len >> (8 * i));
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> takeBuffer() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
    std::vector<std::size_t> sectionStack_;
};

/**
 * Bounds-checked reader over a snapshot byte stream: the restore side of
 * every transfer(). Does not own the buffer; the caller keeps it alive
 * for the Reader's lifetime.
 */
class Reader
{
  public:
    static constexpr bool kLoading = true;

    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Reader(const std::vector<std::uint8_t> &buf)
        : Reader(buf.data(), buf.size())
    {
    }

    /** Read @p v as Writer::field wrote it. */
    template <typename T>
    void
    field(T &v)
    {
        if constexpr (requires(Reader &r) { v.transfer(r); }) {
            v.transfer(*this);
        } else if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t b = 0;
            field(b);
            if (b > 1)
                fail("boolean field holds " + std::to_string(b));
            v = b != 0;
        } else if constexpr (std::is_same_v<T, std::string>) {
            std::uint64_t len = 0;
            field(len);
            need(len);
            v.assign(reinterpret_cast<const char *>(data_ + pos_),
                     std::size_t(len));
            pos_ += std::size_t(len);
        } else if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> raw = 0;
            field(raw);
            v = T(raw);
        } else if constexpr (std::is_same_v<T, double>) {
            std::uint64_t bits = 0;
            field(bits);
            v = std::bit_cast<double>(bits);
        } else {
            static_assert(std::is_integral_v<T>, "no snapshot encoding");
            need(sizeof(T));
            std::make_unsigned_t<T> u = 0;
            for (unsigned i = 0; i < sizeof(T); ++i)
                u |= std::make_unsigned_t<T>(data_[pos_ + i]) << (8 * i);
            pos_ += sizeof(T);
            v = T(u);
        }
    }

    void
    bytes(void *out, std::size_t len)
    {
        need(len);
        std::memcpy(out, data_ + pos_, len);
        pos_ += len;
    }

    /**
     * Empty @p container and resize it to a stored element count. The
     * count is bounded by the bytes remaining, at @p min_elem_bytes per
     * element, so a mangled length field cannot trigger a multi-gigabyte
     * allocation before the next read fails.
     */
    template <typename C>
    void
    size(C &container, std::uint64_t min_elem_bytes)
    {
        std::uint64_t n = 0;
        field(n);
        if (n > remaining() / (min_elem_bytes ? min_elem_bytes : 1)) {
            fail("element count " + std::to_string(n) +
                 " exceeds remaining payload");
        }
        container.clear();
        container.resize(std::size_t(n));
    }

    /** A count fixed by the configuration; fails naming @p what. */
    template <typename T>
    void
    fixedCount(T configured, std::string_view what)
    {
        T n{};
        field(n);
        if (n != configured) {
            fail(std::string(what) + " mismatch: snapshot " +
                 std::to_string(n) + ", configured " +
                 std::to_string(configured));
        }
    }

    /** Fail unless @p ok; @p what is a message or a callable making one. */
    template <typename Msg>
    void
    check(bool ok, const Msg &what)
    {
        if (ok)
            return;
        if constexpr (std::is_invocable_v<const Msg &>)
            fail(what());
        else
            fail(what);
    }

    /** Enter a section; the tag must match and the framing must fit. */
    void
    section(const char tag[4])
    {
        char got[5] = {};
        bytes(got, 4);
        if (std::memcmp(got, tag, 4) != 0) {
            fail(std::string("expected section '") + std::string(tag, 4) +
                 "', found '" + got + "'");
        }
        std::uint64_t len = 0;
        field(len);
        if (len > remaining())
            fail(std::string("section '") + std::string(tag, 4) +
                 "' length " + std::to_string(len) + " overruns payload");
        sectionEnds_.push_back(pos_ + std::size_t(len));
    }

    /** Leave a section; the payload must be consumed exactly. */
    void
    endSection()
    {
        std::size_t end = sectionEnds_.back();
        sectionEnds_.pop_back();
        if (pos_ != end) {
            fail("section payload size mismatch (at " +
                 std::to_string(pos_) + ", expected " +
                 std::to_string(end) + ")");
        }
    }

    std::size_t
    remaining() const
    {
        std::size_t end = sectionEnds_.empty() ? size_
                                               : sectionEnds_.back();
        return end - pos_;
    }

    bool atEnd() const { return pos_ == size_; }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw SnapshotError("snapshot: " + what + " (offset " +
                            std::to_string(pos_) + ")");
    }

  private:
    void
    need(std::uint64_t len) const
    {
        if (len > remaining())
            fail("truncated: need " + std::to_string(len) + " bytes, " +
                 std::to_string(remaining()) + " remain");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::vector<std::size_t> sectionEnds_;
};

/** Instantiate Class::transfer for both archives, in Class's .cc. */
#define OVL_SNAPSHOT_INSTANTIATE(Class)                                     \
    template void Class::transfer(::ovl::snapshot::Writer &);             \
    template void Class::transfer(::ovl::snapshot::Reader &)

/**
 * On-disk envelope: magic + format version + payload length, then the
 * Writer byte stream. readSnapshotFile validates all three before
 * handing the payload back.
 */
void writeSnapshotFile(const std::string &path,
                       const std::vector<std::uint8_t> &payload);

/** Load + validate a snapshot file; throws SnapshotError on any issue. */
std::vector<std::uint8_t> readSnapshotFile(const std::string &path);

} // namespace ovl::snapshot

#endif // OVERLAYSIM_SIM_SNAPSHOT_HH
