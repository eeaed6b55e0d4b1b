/**
 * @file
 * Shared on-disk cache plumbing: the little-endian Writer/Reader pair,
 * the FNV-1a checksum, and the atomic-rename file helpers used by every
 * cache file format in the repository (.wkld workload snapshots,
 * SMSTAPE1 traversal tapes, SMSRSLT1 result-cache entries).
 *
 * All formats follow the same envelope: an 8-byte ASCII magic, a body
 * of fixed-width little-endian fields appended by Writer, and a
 * trailing FNV-1a checksum of everything before it. Floats serialize as
 * IEEE-754 bit patterns, so reloads are bit-exact.
 *
 * Sealing and opening work in place: a writer starts with the magic
 * and seal() appends the checksum to its own buffer, and a reader reads
 * the body as a view into the file bytes, so no payload is copied.
 *
 * Files are written via writeFileAtomic(): the payload lands in a
 * uniquely named temporary file in the target directory and is
 * rename()d into place, so concurrent writers — racing worker
 * *processes* of a sharded sweep as well as racing *threads* of one
 * process — never interleave bytes and readers never observe a partial
 * file. Whichever writer renames last wins with an intact file; for
 * cache entries every writer produces identical bytes, so the race is
 * benign by construction.
 */

#ifndef SMS_TRACE_CACHE_IO_HPP
#define SMS_TRACE_CACHE_IO_HPP

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/geometry/vec3.hpp"
#include "src/scene/registry.hpp"

namespace sms {

/** FNV-1a over @p n bytes, chainable via the @p h seed. */
uint64_t fnv1a(const void *data, size_t n,
               uint64_t h = 0xcbf29ce484222325ull);

/**
 * Append-only little-endian serializer. The buffer grows uninitialized,
 * so capacity it never fills costs no memory.
 */
class CacheWriter
{
  public:
    /** A bare writer, for hashing serialized fields. */
    CacheWriter() = default;

    /** A cache file: the envelope's 8-byte @p magic comes first. */
    explicit CacheWriter(const char magic[8]) { raw(magic, 8); }

    void
    u8(uint8_t v)
    {
        raw(&v, sizeof v);
    }

    void
    u16(uint16_t v)
    {
        raw(&v, sizeof v);
    }

    void
    u32(uint32_t v)
    {
        raw(&v, sizeof v);
    }

    void
    u64(uint64_t v)
    {
        raw(&v, sizeof v);
    }

    void
    i32(int32_t v)
    {
        raw(&v, sizeof v);
    }

    void
    f32(float v)
    {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u32(bits);
    }

    /** double as its IEEE-754 bit pattern (bit-exact reload). */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    vec3(const Vec3 &v)
    {
        f32(v.x);
        f32(v.y);
        f32(v.z);
    }

    /** A length-prefixed byte run. */
    void
    str(std::string_view s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    std::string_view buffer() const { return {buf_.get(), size_}; }

    /** Make room for @p n more bytes up front (e.g. an upper bound). */
    void
    reserve(size_t n)
    {
        if (n > capacity_ - size_)
            grow(n);
    }

    /**
     * Close the envelope: append the FNV-1a checksum of everything
     * written so far. @return the finished file bytes.
     */
    std::string_view
    seal()
    {
        u64(fnv1a(buf_.get(), size_));
        return buffer();
    }

  private:
    void
    raw(const void *p, size_t n)
    {
        if (n > capacity_ - size_)
            grow(n);
        std::memcpy(buf_.get() + size_, p, n);
        size_ += n;
    }

    /** Reallocate with room for at least @p n more bytes. */
    void grow(size_t n);

    std::unique_ptr<char[]> buf_;
    size_t size_ = 0;
    size_t capacity_ = 0;
};

/**
 * Bounds-checked reader over a view of bytes it does not own; any
 * overrun flags failure and returns zeros.
 */
class CacheReader
{
  public:
    explicit CacheReader(std::string_view data) : data_(data) {}

    bool ok() const { return ok_; }
    size_t offset() const { return off_; }

    uint8_t
    u8()
    {
        uint8_t v = 0;
        raw(&v, sizeof v);
        return v;
    }

    uint16_t
    u16()
    {
        uint16_t v = 0;
        raw(&v, sizeof v);
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        raw(&v, sizeof v);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        raw(&v, sizeof v);
        return v;
    }

    int32_t
    i32()
    {
        int32_t v = 0;
        raw(&v, sizeof v);
        return v;
    }

    float
    f32()
    {
        uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    Vec3
    vec3()
    {
        Vec3 v;
        v.x = f32();
        v.y = f32();
        v.z = f32();
        return v;
    }

    std::string str() { return std::string(bytes()); }

    /** A length-prefixed byte run, as a view into the data. */
    std::string_view
    bytes()
    {
        uint64_t n = u64();
        if (!ok_ || n > data_.size() - off_) {
            ok_ = false;
            return {};
        }
        std::string_view s = data_.substr(off_, n);
        off_ += n;
        return s;
    }

  private:
    void
    raw(void *p, size_t n)
    {
        if (!ok_ || n > data_.size() - off_) {
            ok_ = false;
            return;
        }
        std::memcpy(p, data_.data() + off_, n);
        off_ += n;
    }

    std::string_view data_;
    size_t off_ = 0;
    bool ok_ = true;
};

/**
 * Validate the envelope of @p data against @p magic and the trailing
 * checksum; on success @p body views the payload between them (valid
 * while @p data is).
 */
bool openCacheEnvelope(const char magic[8], const std::string &data,
                       std::string_view &body);

/**
 * Write @p data to @p path through a uniquely named temp file in the
 * same directory plus an atomic rename. The temp suffix combines the
 * pid with a per-process counter, so two racing threads of one process
 * (which share a pid) get distinct temp files too — the historical
 * pid-only suffix let them interleave writes to the same temp path.
 */
bool writeFileAtomic(const std::string &path, std::string_view data);

/** Slurp @p path into @p out. @return false when unreadable. */
bool readFile(const std::string &path, std::string &out);

/** mkdir -p. @return false when a component exists as a non-dir. */
bool ensureDir(const std::string &dir);

/** Lowercase filename tag of a scale profile ("tiny"/"small"/"large"). */
const char *profileTag(ScaleProfile profile);

} // namespace sms

#endif // SMS_TRACE_CACHE_IO_HPP
