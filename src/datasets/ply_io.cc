#include "datasets/ply_io.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/logging.h"

namespace hgpcn
{
namespace ply
{

bool
write(const std::string &path, const Frame &frame)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const bool labelled =
        frame.labels.size() == frame.cloud.size();
    out << "ply\nformat ascii 1.0\n";
    out << "comment generated by hgpcn\n";
    out << "element vertex " << frame.cloud.size() << "\n";
    out << "property float x\nproperty float y\nproperty float z\n";
    if (labelled)
        out << "property int label\n";
    out << "end_header\n";
    for (std::size_t i = 0; i < frame.cloud.size(); ++i) {
        const Vec3 &p =
            frame.cloud.position(static_cast<PointIndex>(i));
        out << p.x << " " << p.y << " " << p.z;
        if (labelled)
            out << " " << frame.labels[i];
        out << "\n";
    }
    return static_cast<bool>(out);
}

Frame
read(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open PLY file: ", path);

    std::string line;
    std::getline(in, line);
    if (line != "ply")
        fatal("not a PLY file: ", path);

    // The vertex element must be the first element: its rows are the
    // first of the body, and later elements (faces, edges) are not
    // read, so their counts must not be taken for it.
    std::size_t vertex_count = 0;
    bool seen_element = false;
    bool in_vertex_element = false;
    std::vector<std::string> properties;
    while (std::getline(in, line)) {
        std::istringstream iss(line);
        std::string keyword;
        iss >> keyword;
        if (keyword == "comment")
            continue;
        if (keyword == "format") {
            std::string fmt;
            iss >> fmt;
            if (fmt != "ascii")
                fatal("only ascii PLY is supported: ", path);
        } else if (keyword == "element") {
            std::string what;
            std::size_t count = 0;
            if (!(iss >> what >> count))
                fatal("malformed PLY element line '", line, "': ", path);
            in_vertex_element = what == "vertex";
            if (in_vertex_element == seen_element)
                fatal("PLY vertex element must come first, once: ", path);
            if (in_vertex_element)
                vertex_count = count;
            seen_element = true;
        } else if (keyword == "property" && in_vertex_element) {
            std::string type, name;
            iss >> type >> name;
            properties.push_back(name);
        } else if (keyword == "end_header") {
            break;
        }
    }
    if (properties.size() < 3 || properties[0] != "x" ||
        properties[1] != "y" || properties[2] != "z") {
        fatal("PLY vertex must start with x/y/z floats: ", path);
    }
    int label_column = -1;
    for (std::size_t c = 3; c < properties.size(); ++c) {
        if (properties[c] == "label")
            label_column = static_cast<int>(c);
    }

    // No reserve(vertex_count): the count is unchecked until the rows
    // are read, and a corrupt header must not allocate for it.
    Frame frame;
    frame.name = path;
    std::vector<double> values(properties.size());
    std::string token;
    for (std::size_t i = 0; i < vertex_count; ++i) {
        if (!std::getline(in, line))
            fatal("PLY truncated at vertex ", i, ": ", path);
        std::istringstream iss(line);
        for (std::size_t c = 0; c < values.size(); ++c) {
            if (!(iss >> token))
                fatal("PLY vertex row ", i, " has ", c, " of ",
                      values.size(), " values: ", path);
            const char *end = token.data() + token.size();
            const auto [ptr, ec] =
                std::from_chars(token.data(), end, values[c]);
            if (ec != std::errc() || ptr != end)
                fatal("PLY vertex row ", i, ": non-numeric ",
                      properties[c], " '", token, "': ", path);
        }
        frame.cloud.add({static_cast<float>(values[0]),
                         static_cast<float>(values[1]),
                         static_cast<float>(values[2])});
        if (label_column >= 0) {
            const double label = values[label_column];
            if (!(label >= std::numeric_limits<int>::min() &&
                  label <= std::numeric_limits<int>::max()))
                fatal("PLY vertex row ", i, ": label ", label,
                      " outside int range: ", path);
            frame.labels.push_back(static_cast<int>(label));
        }
    }
    return frame;
}

} // namespace ply
} // namespace hgpcn
