#include "src/gls/oid.h"

#include "src/util/bytes.h"

namespace globe::gls {

ObjectId ObjectId::Generate(Rng* rng) {
  ObjectId oid;
  Bytes random = rng->RandomBytes(kSize);
  std::copy(random.begin(), random.end(), oid.bytes_.begin());
  return oid;
}

Result<ObjectId> ObjectId::FromHex(std::string_view hex) {
  Bytes decoded;
  if (!HexDecode(hex, &decoded) || decoded.size() != kSize) {
    return InvalidArgument("bad object identifier hex: " + std::string(hex));
  }
  ObjectId oid;
  std::copy(decoded.begin(), decoded.end(), oid.bytes_.begin());
  return oid;
}

std::string ObjectId::ToHex() const {
  return HexEncode(ByteSpan(bytes_.data(), bytes_.size()));
}

bool ObjectId::IsNil() const {
  for (uint8_t b : bytes_) {
    if (b != 0) {
      return false;
    }
  }
  return true;
}

uint64_t ObjectId::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes_) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void ObjectId::Serialize(ByteWriter* writer) const {
  writer->WriteBytes(ByteSpan(bytes_.data(), bytes_.size()));
}

Result<ObjectId> ObjectId::Deserialize(ByteReader* reader) {
  ASSIGN_OR_RETURN(ByteSpan bytes, reader->ReadSpan(kSize));
  ObjectId oid;
  std::copy(bytes.begin(), bytes.end(), oid.bytes_.begin());
  return oid;
}

std::string_view ReplicaRoleName(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kMaster:
      return "master";
    case ReplicaRole::kSlave:
      return "slave";
    case ReplicaRole::kCache:
      return "cache";
  }
  return "?";
}

static_assert(sizeof(sim::Endpoint::node) + sizeof(sim::Endpoint::port) +
                      sizeof(ContactAddress::protocol) + sizeof(ContactAddress::role) ==
                  ContactAddress::kWireSize,
              "ContactAddress::kWireSize must match the fields Serialize writes");

void ContactAddress::Serialize(ByteWriter* writer) const {
  writer->WriteU32(endpoint.node);
  writer->WriteU16(endpoint.port);
  writer->WriteU16(protocol);
  writer->WriteU8(static_cast<uint8_t>(role));
}

Result<ContactAddress> ContactAddress::Deserialize(ByteReader* reader) {
  ContactAddress address;
  ASSIGN_OR_RETURN(address.endpoint.node, reader->ReadU32());
  ASSIGN_OR_RETURN(address.endpoint.port, reader->ReadU16());
  ASSIGN_OR_RETURN(address.protocol, reader->ReadU16());
  ASSIGN_OR_RETURN(uint8_t role, reader->ReadU8());
  address.role = static_cast<ReplicaRole>(role);
  return address;
}

std::string ContactAddress::ToString() const {
  return sim::ToString(endpoint) + "/proto" + std::to_string(protocol) + "/" +
         std::string(ReplicaRoleName(role));
}

}  // namespace globe::gls
